(* The benchmark application: a chain is injected at one process, hops
   [hops] times between processes, and ends in an output to the
   environment. Routing is a pure hash of (seed, chain, hop, process), so
   replay regenerates the same sends, and the seed picks the traffic. *)

module Types = Optimist_core.Types

type msg = { chain : int; hops : int }
type state = { count : int; acc : int }

let mix a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  let h = h lxor (h lsr 15) in
  let h = h * 0x27D4EB2F in
  (h lxor (h lsr 13)) land max_int

(* Uniform over every peer but [me]. *)
let route ~n ~seed ~me ~chain ~hops =
  let d = mix (seed + me) chain hops mod (n - 1) in
  if d >= me then d + 1 else d

let app ~n ~seed =
  {
    Types.init = (fun _ -> { count = 0; acc = 0 });
    on_message =
      (fun ~me ~src:_ st m ->
        let st = { count = st.count + 1; acc = mix st.acc m.chain st.count } in
        if m.hops <= 0 then (st, [ (Types.output_dst, m) ])
        else
          ( st,
            [
              ( route ~n ~seed ~me ~chain:m.chain ~hops:m.hops,
                { m with hops = m.hops - 1 } );
            ] ));
  }

let digest st = st.acc

(* How many messages (injection included) each process handles when
   every chain in [chains] (chain id, injection pid) runs once, fault
   free: the per-process [count] a correct run must end with. *)
let expected_counts ~n ~seed ~hops chains =
  let counts = Array.make n 0 in
  List.iter
    (fun (chain, pid) ->
      let rec go me h =
        counts.(me) <- counts.(me) + 1;
        if h > 0 then go (route ~n ~seed ~me ~chain ~hops:h) (h - 1)
      in
      go pid hops)
    chains;
  counts
