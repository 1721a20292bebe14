(** Minimal JSON values: just enough for the trace subsystem to emit and
    re-read its own JSONL/Chrome-trace files without an external dependency.

    The printer is deterministic — object fields are emitted in the order
    given, floats with a fixed ["%.12g"] format — which is what lets a
    seeded simulation produce byte-identical trace files across runs (the
    golden-trace regression tests rely on it). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

(** {2 Scalar writers}

    The one definition of each scalar's format, shared by {!to_string}
    and by encoders that write JSON without building a {!t}
    ([Trace.to_line]). *)

val add_int : Buffer.t -> int -> unit
(** Decimal, as [string_of_int] prints it ([min_int] included). *)

val add_float : Buffer.t -> float -> unit
(** ["%.1f"] for integral values below [1e15] in magnitude, ["%.12g"]
    otherwise ([nan] and [inf] as the C library prints them). *)

val escape_to : Buffer.t -> string -> unit
(** The string as a quoted JSON string: ['"'], ['\\'], newline, return
    and tab get their short escapes, other control characters [\u00XX]. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed). Rejects
    trailing garbage. Numbers with a fraction or exponent parse as
    [Float], others as [Int]. *)

(** {2 Accessors} (shallow, for decoding known shapes) *)

val mem : string -> t -> t option
(** [mem k (Obj ...)] is the first binding of [k]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
val string_value : t -> string option
val list_value : t -> t list option
