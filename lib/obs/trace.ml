module Ftvc = Optimist_clock.Ftvc

type kind =
  | Send of { uid : int; dst : int }
  | Deliver of { uid : int; src : int }
  | Drop_obsolete of { uid : int; src : int }
  | Checkpoint of { position : int }
  | Log_flush of { stable : int }
  | Failure
  | Restart of { new_ver : int }
  | Token_sent of { origin : int; ver : int; ts : int }
  | Token_recv of { origin : int; ver : int; ts : int }
  | Rollback of { discarded : int }
  | Orphan_detected of { origin : int; ver : int; ts : int }
  | Output_commit of { seq : int }
  | Span of { name : string; dur : float }
  | Snapshot of { protocol : string; values : (string * float) list }
  | Custom of { name : string; detail : string }

type event = {
  at : float;
  pid : int;
  ver : int;
  clock : Ftvc.entry array;
  kind : kind;
}

let kind_name = function
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop_obsolete _ -> "drop_obsolete"
  | Checkpoint _ -> "checkpoint"
  | Log_flush _ -> "log_flush"
  | Failure -> "failure"
  | Restart _ -> "restart"
  | Token_sent _ -> "token_sent"
  | Token_recv _ -> "token_recv"
  | Rollback _ -> "rollback"
  | Orphan_detected _ -> "orphan_detected"
  | Output_commit _ -> "output_commit"
  | Span _ -> "span"
  | Snapshot _ -> "snapshot"
  | Custom _ -> "custom"

let kind_names =
  [
    "send";
    "deliver";
    "drop_obsolete";
    "checkpoint";
    "log_flush";
    "failure";
    "restart";
    "token_sent";
    "token_recv";
    "rollback";
    "orphan_detected";
    "output_commit";
    "span";
    "snapshot";
    "custom";
  ]

(* --- schema version --- *)

(* Bumped whenever the JSONL encoding changes shape. Version 1 was the
   headerless format of the first release; version 2 added the header
   record itself; version 3 added the wall-clock [span] and [snapshot]
   telemetry kinds. *)
let schema_version = 3

(* Version 3 only adds kinds, so a v3 reader handles v2 streams as-is.
   v1 streams have no header and therefore never reach this check. *)
let schema_accepts v = v >= 2 && v <= schema_version

let schema_header =
  {
    at = 0.0;
    pid = -1;
    ver = 0;
    clock = [||];
    kind =
      Custom
        {
          name = "schema";
          detail = Printf.sprintf "version=%d" schema_version;
        };
  }

let schema_of_event ev =
  match ev.kind with
  | Custom { name = "schema"; detail } ->
      let prefix = "version=" in
      let plen = String.length prefix in
      if String.length detail > plen && String.sub detail 0 plen = prefix then
        int_of_string_opt
          (String.sub detail plen (String.length detail - plen))
      else None
  | _ -> None

(* --- sinks --- *)

type sink = { on_event : event -> unit; on_close : unit -> unit }

let sink ?(close = fun () -> ()) on_event = { on_event; on_close = close }

module Ring = struct
  type t = { capacity : int; q : event Queue.t }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity";
    { capacity; q = Queue.create () }

  let push t ev =
    Queue.push ev t.q;
    if Queue.length t.q > t.capacity then ignore (Queue.pop t.q)

  let sink t = { on_event = push t; on_close = (fun () -> ()) }
  let length t = Queue.length t.q
  let to_list t = List.of_seq (Queue.to_seq t.q)
  let clear t = Queue.clear t.q
end

(* --- JSONL encoding --- *)

let clock_to_json (clock : Ftvc.entry array) =
  Json.List
    (Array.to_list clock
    |> List.map (fun (e : Ftvc.entry) -> Json.List [ Json.Int e.ver; Json.Int e.ts ]))

let kind_fields = function
  | Send { uid; dst } -> [ ("uid", Json.Int uid); ("dst", Json.Int dst) ]
  | Deliver { uid; src } | Drop_obsolete { uid; src } ->
      [ ("uid", Json.Int uid); ("src", Json.Int src) ]
  | Checkpoint { position } -> [ ("position", Json.Int position) ]
  | Log_flush { stable } -> [ ("stable", Json.Int stable) ]
  | Failure -> []
  | Restart { new_ver } -> [ ("new_ver", Json.Int new_ver) ]
  | Token_sent { origin; ver; ts }
  | Token_recv { origin; ver; ts }
  | Orphan_detected { origin; ver; ts } ->
      [ ("origin", Json.Int origin); ("tver", Json.Int ver); ("tts", Json.Int ts) ]
  | Rollback { discarded } -> [ ("discarded", Json.Int discarded) ]
  | Output_commit { seq } -> [ ("seq", Json.Int seq) ]
  | Span { name; dur } -> [ ("name", Json.String name); ("dur", Json.Float dur) ]
  | Snapshot { protocol; values } ->
      [
        ("protocol", Json.String protocol);
        ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values));
      ]
  | Custom { name; detail } ->
      ("name", Json.String name)
      :: (if detail = "" then [] else [ ("detail", Json.String detail) ])

let to_json ev =
  Json.Obj
    ([
       ("at", Json.Float ev.at);
       ("pid", Json.Int ev.pid);
       ("ver", Json.Int ev.ver);
       ("kind", Json.String (kind_name ev.kind));
     ]
    @ kind_fields ev.kind
    @ if Array.length ev.clock = 0 then [] else [ ("clock", clock_to_json ev.clock) ])

(* The JSONL encoder proper: [to_json]'s fields in [to_json]'s order,
   written straight into [buf] with the scalar writers [Json.to_string]
   uses, so a line is byte-identical to [Json.to_string (to_json ev)]
   without building the tree. Keys and kind names are constant JSON. *)
let add_int_field buf key n =
  Buffer.add_string buf key;
  Json.add_int buf n

let add_string_field buf key s =
  Buffer.add_string buf key;
  Json.escape_to buf s

let add_event buf ev =
  Buffer.add_string buf "{\"at\":";
  Json.add_float buf ev.at;
  add_int_field buf ",\"pid\":" ev.pid;
  add_int_field buf ",\"ver\":" ev.ver;
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (kind_name ev.kind);
  Buffer.add_char buf '"';
  (match ev.kind with
  | Send { uid; dst } ->
      add_int_field buf ",\"uid\":" uid;
      add_int_field buf ",\"dst\":" dst
  | Deliver { uid; src } | Drop_obsolete { uid; src } ->
      add_int_field buf ",\"uid\":" uid;
      add_int_field buf ",\"src\":" src
  | Checkpoint { position } -> add_int_field buf ",\"position\":" position
  | Log_flush { stable } -> add_int_field buf ",\"stable\":" stable
  | Failure -> ()
  | Restart { new_ver } -> add_int_field buf ",\"new_ver\":" new_ver
  | Token_sent { origin; ver; ts }
  | Token_recv { origin; ver; ts }
  | Orphan_detected { origin; ver; ts } ->
      add_int_field buf ",\"origin\":" origin;
      add_int_field buf ",\"tver\":" ver;
      add_int_field buf ",\"tts\":" ts
  | Rollback { discarded } -> add_int_field buf ",\"discarded\":" discarded
  | Output_commit { seq } -> add_int_field buf ",\"seq\":" seq
  | Span { name; dur } ->
      add_string_field buf ",\"name\":" name;
      Buffer.add_string buf ",\"dur\":";
      Json.add_float buf dur
  | Snapshot { protocol; values } ->
      add_string_field buf ",\"protocol\":" protocol;
      Buffer.add_string buf ",\"values\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Json.escape_to buf k;
          Buffer.add_char buf ':';
          Json.add_float buf v)
        values;
      Buffer.add_char buf '}'
  | Custom { name; detail } ->
      add_string_field buf ",\"name\":" name;
      if detail <> "" then add_string_field buf ",\"detail\":" detail);
  if Array.length ev.clock > 0 then begin
    Buffer.add_string buf ",\"clock\":[";
    for i = 0 to Array.length ev.clock - 1 do
      let e = ev.clock.(i) in
      Buffer.add_string buf (if i = 0 then "[" else ",[");
      Json.add_int buf e.Ftvc.ver;
      Buffer.add_char buf ',';
      Json.add_int buf e.Ftvc.ts;
      Buffer.add_char buf ']'
    done;
    Buffer.add_char buf ']'
  end;
  Buffer.add_char buf '}'

let line_buf = Buffer.create 256

let to_line ev =
  Buffer.clear line_buf;
  add_event line_buf ev;
  Buffer.contents line_buf

let clock_of_json j =
  match Json.list_value j with
  | None -> Error "clock: expected a list"
  | Some entries -> (
      let parse_entry e =
        match Json.list_value e with
        | Some [ v; t ] -> (
            match (Json.to_int v, Json.to_int t) with
            | Some ver, Some ts -> Some { Ftvc.ver; ts }
            | _ -> None)
        | _ -> None
      in
      let parsed = List.filter_map parse_entry entries in
      if List.length parsed <> List.length entries then
        Error "clock: malformed entry"
      else Ok (Array.of_list parsed))

let of_json j =
  let int_field name =
    match Option.bind (Json.mem name j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* at =
    match Option.bind (Json.mem "at" j) Json.to_float with
    | Some x -> Ok x
    | None -> Error "missing field \"at\""
  in
  let* pid = int_field "pid" in
  let* ver = int_field "ver" in
  let* kind_tag =
    match Option.bind (Json.mem "kind" j) Json.string_value with
    | Some s -> Ok s
    | None -> Error "missing field \"kind\""
  in
  let token_kind make =
    let* origin = int_field "origin" in
    let* tver = int_field "tver" in
    let* tts = int_field "tts" in
    Ok (make ~origin ~ver:tver ~ts:tts)
  in
  let* kind =
    match kind_tag with
    | "send" ->
        let* uid = int_field "uid" in
        let* dst = int_field "dst" in
        Ok (Send { uid; dst })
    | "deliver" ->
        let* uid = int_field "uid" in
        let* src = int_field "src" in
        Ok (Deliver { uid; src })
    | "drop_obsolete" ->
        let* uid = int_field "uid" in
        let* src = int_field "src" in
        Ok (Drop_obsolete { uid; src })
    | "checkpoint" ->
        let* position = int_field "position" in
        Ok (Checkpoint { position })
    | "log_flush" ->
        let* stable = int_field "stable" in
        Ok (Log_flush { stable })
    | "failure" -> Ok Failure
    | "restart" ->
        let* new_ver = int_field "new_ver" in
        Ok (Restart { new_ver })
    | "token_sent" ->
        token_kind (fun ~origin ~ver ~ts -> Token_sent { origin; ver; ts })
    | "token_recv" ->
        token_kind (fun ~origin ~ver ~ts -> Token_recv { origin; ver; ts })
    | "orphan_detected" ->
        token_kind (fun ~origin ~ver ~ts -> Orphan_detected { origin; ver; ts })
    | "rollback" ->
        let* discarded = int_field "discarded" in
        Ok (Rollback { discarded })
    | "output_commit" ->
        let* seq = int_field "seq" in
        Ok (Output_commit { seq })
    | "span" ->
        let* name =
          match Option.bind (Json.mem "name" j) Json.string_value with
          | Some s -> Ok s
          | None -> Error "missing field \"name\""
        in
        let* dur =
          match Option.bind (Json.mem "dur" j) Json.to_float with
          | Some x -> Ok x
          | None -> Error "missing field \"dur\""
        in
        Ok (Span { name; dur })
    | "snapshot" ->
        let* protocol =
          match Option.bind (Json.mem "protocol" j) Json.string_value with
          | Some s -> Ok s
          | None -> Error "missing field \"protocol\""
        in
        let* values =
          match Json.mem "values" j with
          | Some (Json.Obj fields) ->
              let rec conv acc = function
                | [] -> Ok (List.rev acc)
                | (k, v) :: rest -> (
                    match Json.to_float v with
                    | Some x -> conv ((k, x) :: acc) rest
                    | None ->
                        Error (Printf.sprintf "snapshot value %S: not a number" k))
              in
              conv [] fields
          | _ -> Error "missing object field \"values\""
        in
        Ok (Snapshot { protocol; values })
    | "custom" ->
        let name =
          Option.value ~default:""
            (Option.bind (Json.mem "name" j) Json.string_value)
        in
        let detail =
          Option.value ~default:""
            (Option.bind (Json.mem "detail" j) Json.string_value)
        in
        Ok (Custom { name; detail })
    | other -> Error (Printf.sprintf "unknown event kind %S" other)
  in
  let* clock =
    match Json.mem "clock" j with
    | None -> Ok [||]
    | Some c -> clock_of_json c
  in
  Ok { at; pid; ver; clock; kind }

let of_line line = Result.bind (Json.of_string line) of_json

(* --- streaming JSONL reader --- *)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc lineno =
        match input_line ic with
        | exception End_of_file -> acc
        | raw ->
            let lineno = lineno + 1 in
            if String.trim raw = "" then loop acc lineno
            else loop (f acc ~line:lineno (of_line raw)) lineno
      in
      loop init 0)

let iter_file path ~f = fold_file path ~init:() ~f:(fun () ~line r -> f ~line r)

let jsonl_sink write =
  (* One [write] per line, newline included, from the sink's own buffer. *)
  let buf = Buffer.create 256 in
  let line ev =
    Buffer.clear buf;
    add_event buf ev;
    Buffer.add_char buf '\n';
    write (Buffer.contents buf)
  in
  (* The header is the first line of every stream, so readers can refuse
     (or warn about) traces from an incompatible writer. *)
  line schema_header;
  { on_event = line; on_close = (fun () -> ()) }

(* --- Chrome trace_event (catapult) --- *)

(* Virtual time maps to microseconds 1:1 scaled by 1000, so one unit of
   virtual time reads as one millisecond in the Perfetto timeline. *)
let chrome_ts at = Json.Float (at *. 1000.0)

let chrome_sink write =
  let first = ref true in
  let seen_pids = Hashtbl.create 16 in
  let write_record json =
    if !first then begin
      first := false;
      write "{\"traceEvents\":[\n"
    end
    else write ",\n";
    write (Json.to_string json)
  in
  let base ev name ph extra =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String "protocol");
         ("ph", Json.String ph);
         ("ts", chrome_ts ev.at);
         ("pid", Json.Int ev.pid);
         ("tid", Json.Int ev.pid);
       ]
      @ extra)
  in
  let ensure_pid ev =
    if not (Hashtbl.mem seen_pids ev.pid) then begin
      Hashtbl.add seen_pids ev.pid ();
      write_record
        (Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int ev.pid);
             ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "P%d" ev.pid)) ]);
           ])
    end
  in
  let args ev =
    ( "args",
      Json.Obj
        (("ver", Json.Int ev.ver) :: kind_fields ev.kind
        @
        if Array.length ev.clock = 0 then []
        else [ ("clock", clock_to_json ev.clock) ]) )
  in
  let on_event ev =
    ensure_pid ev;
    (match ev.kind with
    | Failure ->
        (* Duration slice covering the downtime, closed by Restart. *)
        write_record (base ev "down" "B" [ args ev ])
    | Restart _ ->
        write_record (base ev "down" "E" []);
        write_record
          (base ev (kind_name ev.kind) "i" [ ("s", Json.String "t"); args ev ])
    | Span { name; dur } ->
        (* Complete slice: [at] is the span start, [dur] its length. *)
        write_record
          (base ev name "X"
             [ ("dur", Json.Float (dur *. 1000.0)); args ev ])
    | Snapshot { values; _ } ->
        (* Counter track per metric family. *)
        write_record
          (base ev "metrics" "C"
             [
               ( "args",
                 Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values) );
             ])
    | _ ->
        write_record
          (base ev (kind_name ev.kind) "i" [ ("s", Json.String "t"); args ev ]));
    (* Flow arrows: one per message, Send -> Deliver, matched by uid. *)
    match ev.kind with
    | Send { uid; _ } ->
        write_record (base ev "msg" "s" [ ("id", Json.Int uid) ])
    | Deliver { uid; src } when src >= 0 ->
        write_record
          (base ev "msg" "f" [ ("id", Json.Int uid); ("bp", Json.String "e") ])
    | _ -> ()
  in
  let on_close () =
    if !first then write "{\"traceEvents\":[\n";
    write "\n]}\n"
  in
  { on_event; on_close }

(* --- recorder --- *)

type t = {
  mutable recording : bool;
  mutable sinks : sink list; (* attachment order *)
  is_null : bool;
}

let null = { recording = false; sinks = []; is_null = true }

let create () = { recording = false; sinks = []; is_null = false }

let enabled t = t.recording [@@inline]

let attach t s =
  if t.is_null then invalid_arg "Trace.attach: the null recorder";
  t.sinks <- t.sinks @ [ s ];
  t.recording <- true

let emit t ev = if t.recording then List.iter (fun s -> s.on_event ev) t.sinks

let close t =
  List.iter (fun s -> s.on_close ()) t.sinks;
  t.sinks <- [];
  t.recording <- false

(* --- pretty-printing --- *)

let pp_clock ppf clock =
  Format.pp_print_string ppf "[";
  Array.iteri
    (fun i (e : Ftvc.entry) ->
      if i > 0 then Format.pp_print_string ppf " ";
      Format.fprintf ppf "%d.%d" e.ver e.ts)
    clock;
  Format.pp_print_string ppf "]"

let pp_kind ppf = function
  | Send { uid; dst } -> Format.fprintf ppf "send            uid=%d dst=%d" uid dst
  | Deliver { uid; src } ->
      if src < 0 then Format.fprintf ppf "deliver         uid=%d (env)" uid
      else Format.fprintf ppf "deliver         uid=%d src=%d" uid src
  | Drop_obsolete { uid; src } ->
      Format.fprintf ppf "drop_obsolete   uid=%d src=%d" uid src
  | Checkpoint { position } -> Format.fprintf ppf "checkpoint      pos=%d" position
  | Log_flush { stable } -> Format.fprintf ppf "log_flush       stable=%d" stable
  | Failure -> Format.fprintf ppf "failure"
  | Restart { new_ver } -> Format.fprintf ppf "restart         ver=%d" new_ver
  | Token_sent { origin; ver; ts } ->
      Format.fprintf ppf "token_sent      (%d,%d,%d)" origin ver ts
  | Token_recv { origin; ver; ts } ->
      Format.fprintf ppf "token_recv      (%d,%d,%d)" origin ver ts
  | Rollback { discarded } ->
      Format.fprintf ppf "rollback        discarded=%d" discarded
  | Orphan_detected { origin; ver; ts } ->
      Format.fprintf ppf "orphan_detected (%d,%d,%d)" origin ver ts
  | Output_commit { seq } -> Format.fprintf ppf "output_commit   seq=%d" seq
  | Span { name; dur } ->
      Format.fprintf ppf "span            %s dur=%.6fs" name dur
  | Snapshot { protocol; values } ->
      Format.fprintf ppf "snapshot        %s" protocol;
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%g" k v) values
  | Custom { name; detail } ->
      if detail = "" then Format.fprintf ppf "custom          %s" name
      else Format.fprintf ppf "custom          %s %s" name detail

let pp_event ppf ev =
  Format.fprintf ppf "[%10.3f] p%d/v%-2d %a" ev.at ev.pid ev.ver pp_kind ev.kind;
  if Array.length ev.clock > 0 then Format.fprintf ppf "  %a" pp_clock ev.clock
