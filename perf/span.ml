(* Host-time spans, recorded by the benchmark around its calls into each
   layer (nothing inside lib/ is instrumented). Spans stay in memory until
   the run ends; [to_chrome] writes them as Chrome-trace JSON.

   A span named "check.*" times the benchmark's own fidelity probes (a
   CRC of the placed kernel, say): it is shown in the trace but counted
   neither as layer time nor as replay time. *)

type t = {
  id : int;
  name : string;
  op : int;  (** traced op this span belongs to *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_ns : int;
  mutable stop_ns : int;
  mutable alloc_words : float;  (** minor-heap words allocated inside *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let recorded : t list ref = ref []
let count = ref 0
let current = ref (-1)
let current_op = ref 0

let set_op i = current_op := i

let with_span name f =
  let s =
    {
      id = !count;
      name;
      op = !current_op;
      parent = !current;
      start_ns = now_ns ();
      stop_ns = 0;
      alloc_words = 0.;
    }
  in
  incr count;
  recorded := s :: !recorded;
  current := s.id;
  let w0 = Gc.minor_words () in
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      s.alloc_words <- Gc.minor_words () -. w0;
      current := s.parent)
    f

let all () = List.rev !recorded
let duration s = s.stop_ns - s.start_ns
let is_check s = String.starts_with ~prefix:"check." s.name

(* a span's self time: its duration minus the part its children cover
   (children run sequentially inside their parent, so they never
   overlap) *)
let self_ns spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s -> duration s - Option.value ~default:0 (Hashtbl.find_opt covered s.id)

let to_chrome spans =
  let self = self_ns spans in
  let t0 = match spans with [] -> 0 | s :: _ -> s.start_ns in
  let us ns = float_of_int ns /. 1e3 in
  let event s =
    Printf.sprintf
      "{\"name\":%S,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"self_us\":%.3f,\"alloc_words\":%.0f}}"
      s.name
      (us (s.start_ns - t0))
      (us (duration s)) s.id s.parent s.op
      (us (self s)) s.alloc_words
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map event spans)
  ^ "\n]}\n"
