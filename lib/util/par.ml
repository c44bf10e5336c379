(* A fixed-size worker pool on OCaml 5 domains, hand-rolled on Mutex so
   the repo stays dependency-free. Tasks are dealt out of a shared
   chunked queue; results land in a per-task slot, so no ordering
   information is lost to scheduling. *)

let sequential tasks f =
  if tasks = 0 then [||]
  else begin
    (* explicit loop: Array.init's evaluation order is unspecified, and
       callers rely on task order for deterministic side effects *)
    let first = f ~worker:0 0 in
    let out = Array.make tasks first in
    for i = 1 to tasks - 1 do
      out.(i) <- f ~worker:0 i
    done;
    out
  end

let map_tasks ?(jobs = 1) ~tasks f =
  if tasks < 0 then invalid_arg "Par.map_tasks: negative task count";
  (* never spawn more domains than the runtime has cores for: OCaml 5
     minor collections are stop-the-world barriers across every domain,
     and domains beyond the core count multiply barrier latency (each
     descheduled domain must be rescheduled just to reach the barrier)
     without adding any parallelism. Results are stored per task slot
     either way, so the clamp changes wall clock only. *)
  let jobs = min jobs (max 1 (Domain.recommended_domain_count ())) in
  if jobs <= 1 || tasks <= 1 then sequential tasks f
  else begin
    let jobs = min jobs tasks in
    let results = Array.make tasks None in
    let queue = Mutex.create () in
    let next = ref 0 in
    let failed = ref None in
    (* chunking amortizes the lock without starving the tail: a few
       chunks per worker keeps every domain busy until the queue drains *)
    let chunk = max 1 (tasks / (jobs * 4)) in
    let take () =
      Mutex.lock queue;
      let r =
        if Option.is_some !failed || !next >= tasks then None
        else begin
          let lo = !next in
          let hi = min tasks (lo + chunk) in
          next := hi;
          Some (lo, hi)
        end
      in
      Mutex.unlock queue;
      r
    in
    let fail exn bt =
      Mutex.lock queue;
      if Option.is_none !failed then failed := Some (exn, bt);
      Mutex.unlock queue
    in
    let worker w =
      let rec loop () =
        match take () with
        | None -> ()
        | Some (lo, hi) ->
            (try
               for i = lo to hi - 1 do
                 results.(i) <- Some (f ~worker:w i)
               done
             with exn -> fail exn (Printexc.get_raw_backtrace ()));
            loop ()
      in
      loop ()
    in
    let domains =
      Array.init jobs (fun w -> Domain.spawn (fun () -> worker w))
    in
    Array.iter Domain.join domains;
    (match !failed with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Par.map_tasks: worker dropped a task")
      results
  end
