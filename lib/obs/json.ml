type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

(* The writers below define each scalar format once: [to_buffer] and the
   trace encoder ([Trace.to_line]) both go through them. *)

let escape_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Runs of characters that need no escape are copied whole. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' as c ->
        Buffer.add_substring buf s !start (i - !start);
        escape_char buf c;
        start := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* The digits of [n <= 0], most significant first; working on the
   non-positive side keeps [min_int] in range. *)
let rec add_nonpos_digits buf (n : int) =
  if n <= -10 then add_nonpos_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf (n : int) =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos_digits buf n
  end
  else add_nonpos_digits buf (-n)

external format_float : string -> float -> string = "caml_format_float"

(* A fixed float format keeps the output deterministic; 12 significant
   digits round-trip every virtual time the engine produces (sums of
   seeded-PRNG latencies). Integral values below 1e15 print as ["%.1f"]
   does, the rest as ["%.12g"]. The C formatter is the one [Printf] calls
   for these two conversions, minus the format interpretation; an
   integral value is its exact int's digits plus [".0"], except [-0.0]. *)
let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then Buffer.add_string buf "-0.0"
    else begin
      add_int buf (int_of_float x);
      Buffer.add_string buf ".0"
    end
  else Buffer.add_string buf (format_float "%.12g" x)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float x -> add_float buf x
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> error c "unterminated escape"
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then error c "bad \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* Only BMP code points below 0x80 are emitted by our printer;
               decode the rest as UTF-8 for robustness. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | Some ch -> advance c; Buffer.add_char buf ch; loop ())
    | Some ch -> advance c; Buffer.add_char buf ch; loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  let fractional =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text
  in
  if fractional then
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> error c "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' -> (
      advance c;
      skip_ws c;
      match peek c with
      | Some ']' -> advance c; List []
      | _ ->
          let rec items acc =
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' -> advance c; items (v :: acc)
            | Some ']' -> advance c; List.rev (v :: acc)
            | _ -> error c "expected ',' or ']'"
          in
          List (items []))
  | Some '{' -> (
      advance c;
      skip_ws c;
      match peek c with
      | Some '}' -> advance c; Obj []
      | _ ->
          let rec fields acc =
            skip_ws c;
            let k = parse_string c in
            skip_ws c;
            expect c ':';
            let v = parse_value c in
            skip_ws c;
            match peek c with
            | Some ',' -> advance c; fields ((k, v) :: acc)
            | Some '}' -> advance c; List.rev ((k, v) :: acc)
            | _ -> error c "expected ',' or '}'"
          in
          Obj (fields []))
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function
  | Int n -> Some n
  | Float x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_float = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | _ -> None

let string_value = function String s -> Some s | _ -> None

let list_value = function List xs -> Some xs | _ -> None
