type phase = In_monitor | Bootstrap_setup | Decompression | Linux_boot

let phase_name = function
  | In_monitor -> "In-Monitor"
  | Bootstrap_setup -> "Bootstrap Setup"
  | Decompression -> "Decompression"
  | Linux_boot -> "Linux Boot"

let all_phases = [ In_monitor; Bootstrap_setup; Decompression; Linux_boot ]

type span = { label : string; phase : phase; start_ns : int; stop_ns : int }

type t = {
  clk : Clock.t;
  mutable recorded : span list; (* newest first, by closing time *)
  mutable depth_by_phase : (phase * int ref) list;
}

let create clk =
  {
    clk;
    recorded = [];
    depth_by_phase = List.map (fun p -> (p, ref 0)) all_phases;
  }

let clock t = t.clk

let depth t phase = List.assoc phase t.depth_by_phase

let with_span t phase label f =
  let d = depth t phase in
  let top_level = !d = 0 in
  incr d;
  let start_ns = Clock.now t.clk in
  let record () =
    decr d;
    let stop_ns = Clock.now t.clk in
    (* Mark nested same-phase spans with a depth tag so phase_total only
       counts the top-level ones. *)
    let label = if top_level then label else "+" ^ label in
    t.recorded <- { label; phase; start_ns; stop_ns } :: t.recorded
  in
  match f () with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

let tracepoint t phase label =
  let now = Clock.now t.clk in
  t.recorded <- { label; phase; start_ns = now; stop_ns = now } :: t.recorded

let spans t = List.rev t.recorded

let is_top_level s = String.length s.label = 0 || s.label.[0] <> '+'

let display_name s =
  if is_top_level s then s.label
  else String.sub s.label 1 (String.length s.label - 1)

let phase_total t p =
  List.fold_left
    (fun acc s ->
      if s.phase = p && is_top_level s then acc + (s.stop_ns - s.start_ns)
      else acc)
    0 t.recorded

let breakdown t = List.map (fun p -> (p, phase_total t p)) all_phases
let total t = List.fold_left (fun acc (_, d) -> acc + d) 0 (breakdown t)

let reset t =
  t.recorded <- [];
  List.iter (fun (_, d) -> d := 0) t.depth_by_phase;
  Clock.reset t.clk
