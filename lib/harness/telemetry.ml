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

let summary_to_ms (s : Imk_util.Stats.summary) =
  let ms = Imk_util.Units.ns_float_to_ms in
  {
    s with
    Imk_util.Stats.mean = ms s.Imk_util.Stats.mean;
    min = ms s.Imk_util.Stats.min;
    max = ms s.Imk_util.Stats.max;
    stddev = ms s.Imk_util.Stats.stddev;
    p50 = ms s.Imk_util.Stats.p50;
    p90 = ms s.Imk_util.Stats.p90;
    p99 = ms s.Imk_util.Stats.p99;
  }

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

let rows (o : Experiments.output) =
  let rows =
    List.map
      (fun (r : Experiments.boot_row) ->
        {
          label = r.Experiments.label;
          total = summary_to_ms r.Experiments.total;
          phases =
            List.map
              (fun (p, s) -> (p, summary_to_ms s))
              r.Experiments.phases;
        })
      o.Experiments.telemetry
  in
  check_duplicates ~what:"rows" rows;
  rows

let summary_json (s : Imk_util.Stats.summary) =
  Printf.sprintf
    "\"n\": %d, \"mean_ms\": %.6f, \"min_ms\": %.6f, \"max_ms\": %.6f, \
     \"stddev_ms\": %.6f, \"p50_ms\": %.6f, \"p90_ms\": %.6f, \"p99_ms\": %.6f"
    s.Imk_util.Stats.n s.Imk_util.Stats.mean s.Imk_util.Stats.min
    s.Imk_util.Stats.max s.Imk_util.Stats.stddev s.Imk_util.Stats.p50
    s.Imk_util.Stats.p90 s.Imk_util.Stats.p99

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
           (json_escape r.label) r.total.Imk_util.Stats.mean);
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

let summary_of_json j =
  let f k = J.to_float (J.member_exn k j) in
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

(* ---------- regression gate ---------- *)

type delta = {
  d_label : string;
  d_phase : string option;  (* None = the headline total *)
  baseline_p50 : float;
  current_p50 : float;
  change_pct : float;
  degenerate : bool;
  regression : bool;
}

let default_threshold_pct = 5.0

let diff ?(threshold_pct = default_threshold_pct) ~baseline ~current () =
  List.concat_map
    (fun cur ->
      match
        List.find_opt (fun b -> b.label = cur.label) baseline.rows
      with
      | None -> []
      | Some base ->
          let mk d_phase (bs : Imk_util.Stats.summary)
              (cs : Imk_util.Stats.summary) =
            let change_pct =
              if bs.Imk_util.Stats.p50 = 0. then 0.
              else
                (cs.Imk_util.Stats.p50 -. bs.Imk_util.Stats.p50)
                /. bs.Imk_util.Stats.p50 *. 100.
            in
            (* a single-sample side has no distribution: its p90/p99
               alias its p50 and its "p50" is one draw — a delta built
               on one cannot be evidence of a regression *)
            let degenerate =
              bs.Imk_util.Stats.n < 2 || cs.Imk_util.Stats.n < 2
            in
            {
              d_label = cur.label;
              d_phase;
              baseline_p50 = bs.Imk_util.Stats.p50;
              current_p50 = cs.Imk_util.Stats.p50;
              change_pct;
              degenerate;
              (* only the headline total trips the gate; per-phase rows
                 are diagnostic (they tell you where a regression
                 lives, but phase shifts that cancel are not one) *)
              regression =
                d_phase = None && (not degenerate)
                && change_pct > threshold_pct;
            }
          in
          mk None base.total cur.total
          :: List.filter_map
               (fun (p, cs) ->
                 Option.map
                   (fun bs -> mk (Some p) bs cs)
                   (List.assoc_opt p base.phases))
               cur.phases)
    current.rows

let regressions deltas = List.filter (fun d -> d.regression) deltas

let missing_labels ~baseline ~current =
  let labels f = List.map (fun r -> r.label) f.rows in
  let not_in l r = List.filter (fun x -> not (List.mem x l)) r in
  ( not_in (labels current) (labels baseline),
    not_in (labels baseline) (labels current) )

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
