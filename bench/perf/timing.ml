(* Clocks, the host's speed, sample buffers and the small file-system
   helpers every workload shares. *)

(* Monotonic, nanosecond resolution: latencies of a few microseconds
   must not collapse onto the microsecond grid of [gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A growable unboxed float buffer: every sample is kept, so reported
   percentiles are exact order statistics, not histogram buckets. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create ?(capacity = 4096) () = { a = Float.Array.create capacity; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let a = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    Float.Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let a = Float.Array.sub t.a 0 t.n in
    Float.Array.sort Float.compare a;
    a

  (* Linear interpolation between closest ranks; [nan] when empty so a
     missing measurement cannot pass for a zero. *)
  let quantile_sorted a p =
    let n = Float.Array.length a in
    if n = 0 then Float.nan
    else
      let x = p *. float_of_int (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then Float.Array.get a (n - 1)
      else
        let f = x -. float_of_int i in
        Float.Array.get a i
        +. (f *. (Float.Array.get a (i + 1) -. Float.Array.get a i))

  let quantiles t ps =
    let a = sorted t in
    List.map (quantile_sorted a) ps

  let clear t = t.n <- 0

  let of_list l =
    let t = create () in
    List.iter (add t) l;
    t
end

let median l = List.hd (Samples.quantiles (Samples.of_list l) [ 0.5 ])
let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* --- the host's speed ---

   The shared host runs the same code up to twice as slowly for tens of
   seconds at a time, with no steal time to show for it: longer than a
   run, so no statistic within one run can remove it. So each timed
   window is bracketed by [slowness] (the time of a fixed piece of OCaml
   work — hashing, boxing, sorting — over the time it takes on a calm
   host), and times are divided by it, rates multiplied. On six 20 s
   runs this cut the quartile spread of sim_n32's throughput from 0.076
   to 0.019 and of link_floor's from 0.133 to 0.047. Set-ups of the live
   mesh are mostly file-system and socket calls, whose speed moves on its
   own; they are scaled by [syscall_slowness] below. *)

let reference () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now () in
    let h = Hashtbl.create 256 in
    for i = 0 to 4000 do
      Hashtbl.replace h (i land 255) (float_of_int i)
    done;
    let a = Array.init 2000 (fun i -> (i * 7919) land 4095) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (h, a));
    best := Float.min !best (now () -. t0)
  done;
  !best

(* [reference]'s median time on the 2-vCPU host of the README's
   baseline. *)
let reference_s = 0.0005

let slowness () = reference () /. reference_s

(* A latency distribution reported per segment of the run (a round, a
   simulator run, a second): each segment's p50, p90 and p99, divided by
   the mean slowness of its windows, and the median of each over
   segments, for the reason Window takes the median window. A segment
   closes at [cut] once it holds [min_segment] samples, enough for ten
   beyond its p99; short ones carry over. Never cutting pools the whole
   run into one segment. *)
module Latency = struct
  let min_segment = 1000
  let ps = [ 0.5; 0.9; 0.99 ]

  type t = {
    cur : Samples.t;
    mutable slows : float list;  (** of the current segment's windows *)
    mutable segs : float list list;
    mutable count : int;
  }

  (* Sized for a whole segment up front, so the buffer is already there
     when a workload measures the heap its work retains. *)
  let create () =
    { cur = Samples.create ~capacity:(1 lsl 20) (); slows = []; segs = []; count = 0 }

  let add t x = Samples.add t.cur x

  let close t =
    let slow = if t.slows = [] then 1.0 else mean t.slows in
    t.segs <- List.map (fun q -> q /. slow) (Samples.quantiles t.cur ps) :: t.segs;
    t.count <- t.count + Samples.length t.cur;
    t.slows <- [];
    Samples.clear t.cur

  (* At the end of a window, with its slowness. *)
  let cut t ~slow =
    t.slows <- slow :: t.slows;
    if Samples.length t.cur >= min_segment then close t

  (* [p50; p90; p99] in seconds; a short last segment only counts when
     there is no other. *)
  let summary t =
    if t.segs = [] && Samples.length t.cur > 0 then close t;
    List.mapi (fun i _ -> median (List.map (fun seg -> List.nth seg i) t.segs)) ps

  let samples t = t.count + Samples.length t.cur
end

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Words still live after a full collection ([Gc.stat] runs one), exact
   where the size of the heap would depend on how it fragmented. *)
let live_mb () = words_mb (Gc.stat ()).Gc.live_words

let peak_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* --- scratch directories (relative to the working directory, so the
   AF_UNIX socket paths stay short wherever the checkout lives) --- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* One root per process, removed when the process exits, an uncaught
   exception included, so a run leaves nothing in the working directory. *)
let scratch_root =
  lazy
    (let root = Printf.sprintf "_perf.%d" (Unix.getpid ()) in
     at_exit (fun () -> rm_rf root);
     root)

let fresh_dir name =
  let dir = Filename.concat (Lazy.force scratch_root) name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* --- the file system's and the socket layer's speed --- *)

(* The calls the mesh's set-up makes for each of its [k] processes: a
   Store's (a directory, two files opened for appending, a flushed write,
   a rewrite through a temp file and a rename) and a Unix datagram socket
   bound to a path. The least of five; closing and removing are not
   timed. *)
let syscall_reference k =
  let dir = fresh_dir "reference" in
  let b = Bytes.make 64 'x' in
  let append d f =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (Filename.concat d f)
  in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = now () in
    let opened =
      List.init k (fun i ->
          let d = Filename.concat dir (string_of_int i) in
          Unix.mkdir d 0o755;
          let log = append d "log" and cps = append d "cps" in
          output_bytes cps b;
          flush cps;
          let tmp = Filename.concat d "meta.tmp" in
          let oc = open_out_bin tmp in
          output_bytes oc b;
          close_out oc;
          Sys.rename tmp (Filename.concat d "meta");
          let path = Filename.concat d "s" in
          (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
          let s = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
          Unix.bind s (Unix.ADDR_UNIX path);
          Unix.set_nonblock s;
          (s, log, cps))
    in
    best := Float.min !best (now () -. t0);
    List.iter
      (fun (s, log, cps) ->
        Unix.close s;
        close_out log;
        close_out cps)
      opened;
    Array.iter (fun f -> rm_rf (Filename.concat dir f)) (Sys.readdir dir)
  done;
  rm_rf dir;
  !best

(* [syscall_reference]'s time per process on a calm stretch of the host
   of the README's baseline. *)
let syscall_process_s = 100e-6

(* On that host this speed moved up to sevenfold between runs while the
   mesh's set-up time over it stayed within 0.41–0.48 ms. *)
let syscall_slowness k = syscall_reference k /. (float_of_int k *. syscall_process_s)
