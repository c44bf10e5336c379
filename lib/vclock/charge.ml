type t = {
  trace : Trace.t;
  cm : Cost_model.t;
  jitter : Imk_entropy.Prng.t option;
  sched : Sched.timeline option;
  mutable deadline : Deadline.t option;
}

let create ?jitter ?sched trace cm =
  (match sched with
  | Some tl when not (Sched.timeline_clock tl == Trace.clock trace) ->
      invalid_arg "Charge.create: trace does not record against the timeline"
  | _ -> ());
  { trace; cm; jitter; sched; deadline = None }

let fresh ?jitter_seed ?sched () =
  let clock =
    match sched with Some tl -> Sched.timeline_clock tl | None -> Clock.create ()
  in
  let trace = Trace.create clock in
  let jitter =
    Option.map
      (fun seed -> Imk_entropy.Prng.create ~seed:(Int64.add seed 7919L))
      jitter_seed
  in
  (trace, create ?jitter ?sched trace Cost_model.default)

let trace t = t.trace
let model t = t.cm
let clock t = Trace.clock t.trace
let set_deadline t d = t.deadline <- d
let deadline t = t.deadline

let span t phase label f =
  Trace.with_span t.trace phase label (fun () ->
      let v = f () in
      (* the phase boundary: the span's work is done and charged; an
         armed over-budget deadline aborts here, never mid-transform *)
      (match t.deadline with None -> () | Some d -> Deadline.check d);
      v)

let jittered t ns =
  match t.jitter with
  | None -> ns
  | Some rng -> Cost_model.jitter t.cm rng ns

let pay t ns =
  let ns = jittered t ns in
  match t.sched with
  | None -> Clock.advance (Trace.clock t.trace) ns
  | Some _ -> Sched.wait ns

let pay_using t r ns =
  let ns = jittered t ns in
  match t.sched with
  | None -> Clock.advance (Trace.clock t.trace) ns
  | Some _ -> Sched.busy r ns

let pay_span t phase label ns = span t phase label (fun () -> pay t ns)
