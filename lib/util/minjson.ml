(* Minimal JSON reader for the repo's own machine-written artifacts
   (BENCH_<exp>.json). Strict where it matters for round-tripping the
   telemetry writer's output; not a general-purpose JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "Minjson: expected '%c' at %d, found '%c'" ch c.pos x
  | None -> fail "Minjson: expected '%c' at %d, found end of input" ch c.pos

let parse_literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then (
    c.pos <- c.pos + n;
    v)
  else fail "Minjson: bad literal at %d" c.pos

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "Minjson: unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents buf
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "Minjson: unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.s then
                  fail "Minjson: truncated \\u escape";
                let hex = String.sub c.s c.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some v -> v
                  | None -> fail "Minjson: bad \\u escape %s" hex
                in
                c.pos <- c.pos + 4;
                (* the writer only emits \u for control chars; decode the
                   Latin-1 range and refuse anything needing multi-byte
                   UTF-8 (it cannot round-trip through this reader) *)
                if code < 0x100 then Buffer.add_char buf (Char.chr code)
                else fail "Minjson: unsupported \\u%s beyond Latin-1" hex
            | e -> fail "Minjson: bad escape '\\%c'" e);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let lit = String.sub c.s start (c.pos - start) in
  match float_of_string_opt lit with
  | Some v when Float.is_finite v -> Num v
  | Some _ -> fail "Minjson: non-finite number %s" lit
  | None -> fail "Minjson: bad number %S at %d" lit start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "Minjson: empty input"
  | Some '{' -> parse_obj c
  | Some '[' -> parse_arr c
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> fail "Minjson: unexpected '%c' at %d" ch c.pos

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then (
    advance c;
    Obj [])
  else
    let rec members acc =
      skip_ws c;
      let key = parse_string_body c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          members ((key, v) :: acc)
      | Some '}' ->
          advance c;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail "Minjson: expected ',' or '}' at %d" c.pos
    in
    members []

and parse_arr c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then (
    advance c;
    Arr [])
  else
    let rec elements acc =
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          elements (v :: acc)
      | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
      | _ -> fail "Minjson: expected ',' or ']' at %d" c.pos
    in
    elements []

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "Minjson: trailing garbage at %d" c.pos;
  v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let member_exn key v =
  match member key v with
  | Some x -> x
  | None -> fail "Minjson: missing member %S" key

let to_float = function
  | Num f -> f
  | _ -> fail "Minjson: expected number"

let to_int v =
  let f = to_float v in
  let i = int_of_float f in
  if float_of_int i <> f then fail "Minjson: expected integer, got %g" f;
  i

let to_string = function
  | Str s -> s
  | _ -> fail "Minjson: expected string"

let to_list = function
  | Arr l -> l
  | _ -> fail "Minjson: expected array"
