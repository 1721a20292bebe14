type entry = { ver : int; ts : int }

type t = { me : int; v : entry array }

let zero_entry = { ver = 0; ts = 0 }

let create ~n ~me =
  if n <= 0 || me < 0 || me >= n then invalid_arg "Ftvc.create";
  let v = Array.make n zero_entry in
  v.(me) <- { ver = 0; ts = 1 };
  { me; v }

let size t = Array.length t.v

let me t = t.me

let get t i = t.v.(i)

let own t = t.v.(t.me)

let entries t = Array.copy t.v

let piggyback t = t.v

let entry_compare a b =
  let c = compare a.ver b.ver in
  if c <> 0 then c else compare a.ts b.ts

let entry_leq a b = entry_compare a b <= 0

let entry_max a b = if entry_compare a b >= 0 then a else b

let bump_own t =
  let v = Array.copy t.v in
  let e = v.(t.me) in
  v.(t.me) <- { e with ts = e.ts + 1 };
  { t with v }

let sent = bump_own

let internal = bump_own

let rolled_back = bump_own

let rolled_back_from ~restored ~orphaned =
  if restored.me <> orphaned.me then
    invalid_arg "Ftvc.rolled_back_from: different owners";
  let r = restored.v.(restored.me) and o = orphaned.v.(orphaned.me) in
  if r.ver = o.ver then bump_own restored
  else begin
    let v = Array.copy restored.v in
    v.(restored.me) <- { ver = o.ver; ts = o.ts + 1 };
    { restored with v }
  end

let with_own t entry =
  let v = Array.copy t.v in
  v.(t.me) <- entry;
  { t with v }

(* One pass over a copy, no closure: a received entry replaces the local
   one only where it is strictly greater, which is [entry_max]'s choice. *)
let deliver_entries t ~received =
  let n = Array.length t.v in
  if Array.length received <> n then invalid_arg "Ftvc.deliver: size mismatch";
  let v = Array.copy t.v in
  for i = 0 to n - 1 do
    let r = received.(i) and e = v.(i) in
    if r.ver > e.ver || (r.ver = e.ver && r.ts > e.ts) then v.(i) <- r
  done;
  let e = v.(t.me) in
  v.(t.me) <- { e with ts = e.ts + 1 };
  { t with v }

let deliver t ~received = deliver_entries t ~received:received.v

let join a b =
  if a.me <> b.me then invalid_arg "Ftvc.join: different owners";
  if Array.length a.v <> Array.length b.v then
    invalid_arg "Ftvc.join: size mismatch";
  { a with v = Array.mapi (fun i e -> entry_max e b.v.(i)) a.v }

let of_entries ~me v =
  if me < 0 || me >= Array.length v then invalid_arg "Ftvc.of_entries";
  { me; v = Array.copy v }

let restart t =
  let v = Array.copy t.v in
  let e = v.(t.me) in
  v.(t.me) <- { ver = e.ver + 1; ts = 0 };
  { t with v }

let leq a b =
  let n = Array.length a.v in
  let rec loop i = i >= n || (entry_leq a.v.(i) b.v.(i) && loop (i + 1)) in
  Array.length b.v = n && loop 0

(* Entry by entry: [a.v = b.v] would be the polymorphic structural
   compare. *)
let equal a b =
  let n = Array.length a.v in
  let rec loop i =
    i >= n
    ||
    let x = a.v.(i) and y = b.v.(i) in
    x.ver = y.ver && x.ts = y.ts && loop (i + 1)
  in
  Array.length b.v = n && loop 0

let lt a b = leq a b && not (equal a b)

let concurrent a b = (not (leq a b)) && not (leq b a)

let size_words t = 2 * Array.length t.v

let pp_entry ppf e = Format.fprintf ppf "(%d,%d)" e.ver e.ts

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       pp_entry)
    (Array.to_list t.v)
