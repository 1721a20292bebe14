type 'cp t = { mutable items : ('cp * int) list (* newest first *) }

let create () = { items = [] }

let of_items items =
  (match items with
  | (_, newest) :: rest ->
      let rec check last = function
        | [] -> ()
        | (_, p) :: tl ->
            if p > last then
              invalid_arg "Checkpoint_store.of_items: not newest-first"
            else check p tl
      in
      check newest rest
  | [] -> ());
  { items }

let record t ~position payload =
  (match t.items with
  | (_, last) :: _ when position < last ->
      invalid_arg "Checkpoint_store.record: positions must be non-decreasing"
  | _ -> ());
  t.items <- (payload, position) :: t.items

let latest t = match t.items with [] -> None | x :: _ -> Some x

let latest_is t pred arg =
  match t.items with [] -> false | (cp, position) :: _ -> pred arg cp position

let latest_satisfying t pred =
  let rec loop = function
    | [] -> None
    | ((payload, position) as x) :: rest ->
        if pred payload position then Some x else loop rest
  in
  loop t.items

let discard_after t ~position =
  t.items <- List.filter (fun (_, p) -> p <= position) t.items

let gc_before t ~position =
  (* Keep everything newer than [position], plus the newest checkpoint at or
     below it. *)
  let rec split kept = function
    | [] -> (kept, [])
    | ((_, p) as x) :: rest ->
        if p > position then split (x :: kept) rest else (kept, x :: rest)
  in
  let newer, older = split [] t.items in
  match older with
  | [] -> 0
  | anchor :: reclaimed ->
      t.items <- List.rev_append newer [ anchor ];
      List.length reclaimed

let count t = List.length t.items

let positions t = List.rev_map snd t.items
