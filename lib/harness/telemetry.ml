let schema_version = 2

type row = {
  label : string;
  total : Imk_util.Stats.summary;
  phases : (string * Imk_util.Stats.summary) list;
}

type file = {
  schema : int;
  experiment : string;
  runs : int;
  jobs : int;
  scale : int;
  functions : int option;
  wall_clock_s : float;
  rows : row list;
}

let json_escape s =
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

(* Identify the headline millisecond column of a rendered table. Only a
   structural sanity check nowadays (the JSON is fed raw floats, never
   parsed out of cells): bench warns when an experiment renders a
   millisecond column but provides no structured telemetry. A column is
   a millisecond column when its header is exactly "ms" or ends in the
   token " ms" — a bare "ms" suffix also matched "atoms"/"programs". *)
let value_column headers =
  let lower = List.map String.lowercase_ascii headers in
  let index_of p =
    let rec go i = function
      | [] -> None
      | h :: t -> if p h then Some i else go (i + 1) t
    in
    go 0 lower
  in
  let ms_token h =
    h = "ms"
    ||
    let n = String.length h in
    n > 3 && String.sub h (n - 3) 3 = " ms"
  in
  match index_of (fun h -> h = "total ms") with
  | Some i -> Some i
  | None -> (
      match index_of (fun h -> h = "boot ms" || h = "create ms") with
      | Some i -> Some i
      | None -> index_of ms_token)

let check_duplicates ~what rows =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.label then
        invalid_arg
          (Printf.sprintf
             "Telemetry.%s: duplicate label %S — two table rows would \
              silently shadow each other in the JSON"
             what r.label);
      Hashtbl.add seen r.label ())
    rows

(* rows hold nanoseconds; the file holds milliseconds, converted here
   as the row renders *)
let summary_json (s : Imk_util.Stats.summary) =
  let ms = Imk_util.Units.ns_float_to_ms in
  Printf.sprintf
    "\"n\": %d, \"mean_ms\": %.6f, \"min_ms\": %.6f, \"max_ms\": %.6f, \
     \"stddev_ms\": %.6f, \"p50_ms\": %.6f, \"p90_ms\": %.6f, \"p99_ms\": %.6f"
    s.Imk_util.Stats.n (ms s.Imk_util.Stats.mean) (ms s.Imk_util.Stats.min)
    (ms s.Imk_util.Stats.max) (ms s.Imk_util.Stats.stddev)
    (ms s.Imk_util.Stats.p50) (ms s.Imk_util.Stats.p90)
    (ms s.Imk_util.Stats.p99)

let to_json ~experiment ~runs ~jobs ~scale ~functions ~wall_clock_s rows =
  check_duplicates ~what:"to_json" rows;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema\": %d,\n" schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"experiment\": \"%s\",\n" (json_escape experiment));
  Buffer.add_string buf (Printf.sprintf "  \"runs\": %d,\n" runs);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf (Printf.sprintf "  \"scale\": %d,\n" scale);
  Buffer.add_string buf
    (match functions with
    | None -> "  \"functions\": null,\n"
    | Some f -> Printf.sprintf "  \"functions\": %d,\n" f);
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_clock_s\": %.3f,\n" wall_clock_s);
  Buffer.add_string buf "  \"boot_ms\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"label\": \"%s\",\n      \"mean_ms\": %.6f,\n"
           (json_escape r.label)
           (Imk_util.Units.ns_float_to_ms r.total.Imk_util.Stats.mean));
      Buffer.add_string buf
        (Printf.sprintf "      \"total\": { %s },\n" (summary_json r.total));
      Buffer.add_string buf "      \"phases\": [";
      List.iteri
        (fun j (p, s) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\n        { \"phase\": \"%s\", %s }"
               (json_escape p) (summary_json s)))
        r.phases;
      if r.phases <> [] then Buffer.add_string buf "\n      ";
      Buffer.add_string buf "] }")
    rows;
  if rows <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

(* ---------- reading BENCH_<exp>.json back (the --baseline gate) ---------- *)

module J = Imk_util.Minjson

(* milliseconds back to nanoseconds: deterministic, so two files that
   render the same bytes read back to the same floats *)
let summary_of_json j =
  let f k = J.to_float (J.member_exn k j) *. 1_000_000. in
  {
    Imk_util.Stats.n = J.to_int (J.member_exn "n" j);
    mean = f "mean_ms";
    min = f "min_ms";
    max = f "max_ms";
    stddev = f "stddev_ms";
    p50 = f "p50_ms";
    p90 = f "p90_ms";
    p99 = f "p99_ms";
  }

let of_json s =
  let j = J.parse s in
  let schema = J.to_int (J.member_exn "schema" j) in
  if schema <> schema_version then
    invalid_arg
      (Printf.sprintf
         "Telemetry.of_json: schema %d, this reader needs schema %d — \
          regenerate the file with the current bench"
         schema schema_version);
  let rows =
    List.map
      (fun rj ->
        {
          label = J.to_string (J.member_exn "label" rj);
          total = summary_of_json (J.member_exn "total" rj);
          phases =
            List.map
              (fun pj ->
                (J.to_string (J.member_exn "phase" pj), summary_of_json pj))
              (J.to_list (J.member_exn "phases" rj));
        })
      (J.to_list (J.member_exn "boot_ms" j))
  in
  check_duplicates ~what:"of_json" rows;
  {
    schema;
    experiment = J.to_string (J.member_exn "experiment" j);
    runs = J.to_int (J.member_exn "runs" j);
    jobs = J.to_int (J.member_exn "jobs" j);
    scale = J.to_int (J.member_exn "scale" j);
    functions =
      (match J.member_exn "functions" j with
      | J.Null -> None
      | v -> Some (J.to_int v));
    wall_clock_s = J.to_float (J.member_exn "wall_clock_s" j);
    rows;
  }

(* ---------- exact comparison ---------- *)

(* virtual time is deterministic per seed, so any bit of difference is
   drift: floats compare by their bits, never within a tolerance *)
let summary_diff ~where (b : Imk_util.Stats.summary)
    (c : Imk_util.Stats.summary) =
  let fields (s : Imk_util.Stats.summary) =
    Imk_util.Stats.
      [
        ("n", float_of_int s.n); ("mean", s.mean); ("min", s.min);
        ("max", s.max); ("stddev", s.stddev); ("p50", s.p50); ("p90", s.p90);
        ("p99", s.p99);
      ]
  in
  List.filter_map
    (fun ((field, vb), (_, vc)) ->
      if Int64.bits_of_float vb = Int64.bits_of_float vc then None
      else
        Some
          (Printf.sprintf "%s %s: baseline %.17g, current %.17g" where field
             vb vc))
    (List.combine (fields b) (fields c))

let diff_rows ~baseline ~current =
  let find rows l = List.find_opt (fun r -> r.label = l) rows in
  let row_diff b c =
    let names r = List.map fst r.phases in
    if names b <> names c then
      [
        Printf.sprintf "%s: phases [%s] in baseline, [%s] in current run"
          c.label
          (String.concat "; " (names b))
          (String.concat "; " (names c));
      ]
    else
      summary_diff ~where:(c.label ^ " total") b.total c.total
      @ List.concat
          (List.map2
             (fun (p, bs) (_, cs) ->
               summary_diff ~where:(c.label ^ " " ^ p) bs cs)
             b.phases c.phases)
  in
  List.concat_map
    (fun c ->
      match find baseline c.label with
      | Some b -> row_diff b c
      | None -> [ Printf.sprintf "%s: only in current run" c.label ])
    current
  @ List.filter_map
      (fun b ->
        match find current b.label with
        | Some _ -> None
        | None -> Some (Printf.sprintf "%s: only in baseline" b.label))
      baseline

let diff ~baseline ~current =
  let show = function None -> "null" | Some n -> string_of_int n in
  List.filter_map
    (fun (name, get) ->
      let b = get baseline and c = get current in
      if b = c then None
      else
        Some (Printf.sprintf "%s: baseline %s, current %s" name (show b) (show c)))
    [
      ("runs", fun f -> Some f.runs);
      ("scale", fun f -> Some f.scale);
      ("functions", fun f -> f.functions);
    ]
  @ diff_rows ~baseline:baseline.rows ~current:current.rows

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
