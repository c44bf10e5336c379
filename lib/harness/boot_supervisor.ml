open Imk_vclock
module Failure = Imk_fault.Failure

type ctx = {
  cache : Imk_storage.Page_cache.t;
  inject : (string -> unit) option;
  plans : Imk_monitor.Plan_cache.t option;
}

let plain_ctx ?plans cache = { cache; inject = None; plans }

type report = {
  outcome : (Imk_guest.Runtime.verify_stats, Failure.t) result;
  attempts : int;
  events : Failure.event list;
  total_ns : int;
  recovery : (string * int) list;
}

let backoff_base_ns = 200_000
(* first retry waits ~0.2 ms of virtual time, doubling per retry — small
   against a multi-ms boot but visible in the trace *)

let short_circuit_ns = 25_000
(* rejecting a boot while the breaker is open is cheap but not free: the
   launcher still looks up breaker state and reports the refusal *)

type policy = {
  max_retries : int;
  attempt_budget_ns : int option;
  breaker_threshold : int;
  breaker_cooldown : int;
  retry_budget : int;
}

let default_policy =
  {
    max_retries = 3;
    attempt_budget_ns = None;
    breaker_threshold = 3;
    breaker_cooldown = 2;
    retry_budget = max_int;
  }

type breaker_state = Closed | Open of int

type fleet = {
  policy : policy;
  mutable state : breaker_state;
  mutable consecutive : int;
  mutable trips : int;
  mutable last_failure : Failure.t option;
  mutable retries_left : int;
}

let fleet ?(policy = default_policy) () =
  {
    policy;
    state = Closed;
    consecutive = 0;
    trips = 0;
    last_failure = None;
    retries_left = policy.retry_budget;
  }

let breaker_trips f = f.trips
let retries_left f = f.retries_left

let breaker_state_name f =
  match f.state with
  | Closed -> "closed"
  | Open 0 -> "half-open"
  | Open _ -> "open"

let modeled (vm : Imk_monitor.Vm_config.t) n =
  Imk_kernel.Config.modeled_of_actual vm.Imk_monitor.Vm_config.kernel_config n

(* Replace a corrupt relocation table with one re-derived from the
   kernel ELF (Figure 8's extraction path — proven to boot verify-green
   by test_boot_paths). Real work, charged in its own span: read the
   image, parse it, walk every function for relocation sites. *)
let rederive_relocs ch ctx (vm : Imk_monitor.Vm_config.t) path =
  Charge.span ch Trace.In_monitor "rederive-relocs" (fun () ->
      let cm = Charge.model ch in
      let kernel, cached =
        Imk_storage.Page_cache.read ctx.cache vm.Imk_monitor.Vm_config.kernel_path
      in
      Charge.pay_using ch Sched.Disk
        (Cost_model.read_cost cm ~cached (modeled vm (Bytes.length kernel)));
      let elf = Imk_elf.Parser.parse kernel in
      Charge.pay ch
        (Cost_model.elf_parse_cost cm
           ~sections:(modeled vm (Array.length elf.Imk_elf.Types.sections)));
      let table = Imk_kernel.Relocs_tool.extract kernel in
      Charge.pay ch
        (Cost_model.reloc_cost cm ~in_guest:false
           ~entries:(modeled vm (Imk_elf.Relocation.entry_count table)));
      Imk_storage.Disk.add
        (Imk_storage.Page_cache.disk ctx.cache)
        ~name:path
        (Imk_elf.Relocation.encode table))

(* --- circuit breaker: per-kernel-config, campaign-scoped state --- *)

type admission = Admit | Probe | Reject of Failure.t

let admit = function
  | None -> Admit
  | Some f -> (
      match f.state with
      | Closed -> Admit
      | Open 0 -> Probe
      | Open n ->
          f.state <- Open (n - 1);
          Reject
            (Option.value
               ~default:(Failure.Transient "breaker open")
               f.last_failure))

let persistent = function Failure.Transient _ -> false | _ -> true

(* breaker bookkeeping after a supervised boot; the extra events it
   returns are appended to the report in occurrence order *)
let breaker_note fleet ~probing (outcome : (_, Failure.t) result) =
  match fleet with
  | None -> []
  | Some f -> (
      match outcome with
      | Ok _ ->
          if probing then begin
            f.state <- Closed;
            f.consecutive <- 0;
            [ Failure.Breaker_probe { succeeded = true } ]
          end
          else begin
            f.consecutive <- 0;
            []
          end
      | Error fl ->
          f.last_failure <- Some fl;
          if probing then begin
            f.state <- Open f.policy.breaker_cooldown;
            [ Failure.Breaker_probe { succeeded = false } ]
          end
          else if persistent fl then begin
            f.consecutive <- f.consecutive + 1;
            if f.consecutive >= f.policy.breaker_threshold then begin
              f.state <- Open f.policy.breaker_cooldown;
              f.trips <- f.trips + 1;
              let consecutive = f.consecutive in
              f.consecutive <- 0;
              [ Failure.Breaker_opened { failure = fl; consecutive } ]
            end
            else []
          end
          else [])

(* Seal a report: every labelled recovery interval plus the successful
   attempt must cover the trace total exactly — if a charge ever lands
   outside the supervisor's accounting, the report (and with it the
   faults/resilience telemetry) would silently drift from the --trace
   timeline, so a mismatch is a programming error, not a boot failure. *)
let finish ?tap trace ~outcome ~attempts ~events ~recovery_rev ~success_ns =
  (match tap with Some f -> f trace | None -> ());
  let total_ns = Trace.total trace in
  let recovery = List.rev recovery_rev in
  let accounted =
    success_ns + List.fold_left (fun acc (_, d) -> acc + d) 0 recovery
  in
  if accounted <> total_ns then
    invalid_arg
      (Printf.sprintf
         "Boot_supervisor: recovery spans (%d ns) + successful attempt (%d \
          ns) do not cover the trace total (%d ns)"
         (accounted - success_ns) success_ns total_ns);
  { outcome; attempts; events; total_ns; recovery }

let reject_report ?tap ch trace failure =
  let clk = Charge.clock ch in
  let mark = Clock.now clk in
  Charge.pay_span ch Trace.In_monitor "breaker-short-circuit" short_circuit_ns;
  finish ?tap trace ~outcome:(Error failure) ~attempts:0
    ~events:[ Failure.Breaker_short_circuit { failure } ]
    ~recovery_rev:[ ("breaker-short-circuit", Clock.elapsed_since clk mark) ]
    ~success_ns:0

(* --- the state machine both entry points run --- *)

(* what an attempt does: boot cold, or restore a snapshot. A restore is
   only ever the first attempt; its typed failure falls back to cold
   boots on the same clock. *)
type attempt = Cold_boot | Restore of { path : string; working_set_pages : int }

(* one supervised boot in flight. The bookkeeping is one record, not
   refs and closures, so a clean attempt adds no allocation of its own
   (a warm restore is the zygote-restore benchmark's whole op). *)
type run = {
  ch : Charge.t;
  ctx : ctx;
  vm : Imk_monitor.Vm_config.t;
  arena : Imk_memory.Arena.t option;
  fleet : fleet option;
  budget : int option;  (** per-attempt deadline, from the fleet policy *)
  max_retries : int;
  mutable attempts : int;
  mutable events : Failure.event list;  (** reverse occurrence order *)
  mutable recovery : (string * int) list;  (** reverse occurrence order *)
  mutable rederived : bool;
  mutable deadline_fallback_used : bool;
  mutable success_ns : int;
}

let push r e = r.events <- e :: r.events

let add_recovery r label mark =
  r.recovery <- (label, Clock.elapsed_since (Charge.clock r.ch) mark) :: r.recovery

let boot r =
  let boot ?mem () =
    (Imk_monitor.Vmm.boot ?inject:r.ctx.inject ?plans:r.ctx.plans ?mem r.ch
       r.ctx.cache r.vm)
      .Imk_monitor.Vmm.stats
  in
  match r.arena with
  | None -> boot ()
  | Some a ->
      Imk_memory.Arena.with_buffer a ~size:r.vm.Imk_monitor.Vm_config.mem_bytes
        (fun mem -> boot ~mem ())

(* a restore loads through [ctx.plans]: a warm restore of the same
   snapshot content clones its cached chunk image *)
let restore r ~path ~working_set_pages =
  let ch = r.ch and ctx = r.ctx in
  let snap =
    Charge.span ch Trace.In_monitor "snapshot-load" (fun () ->
        let blob, cached = Imk_storage.Page_cache.read ctx.cache path in
        Charge.pay_using ch Sched.Disk
          (Cost_model.read_cost (Charge.model ch) ~cached
             (modeled r.vm (Bytes.length blob)));
        Imk_monitor.Snapshot.load_cached ctx.plans ~path ~config:r.vm blob)
  in
  (Imk_monitor.Snapshot.restore ch snap ~working_set_pages).Imk_monitor.Vmm.stats

(* one attempt, under a fresh deadline when the policy sets a budget
   (recovery work between attempts runs with the deadline detached), then
   on a typed failure the recovery it calls for *)
let rec go r kind retries_left =
  let clk = Charge.clock r.ch in
  let mark = Clock.now clk in
  r.attempts <- r.attempts + 1;
  (match r.budget with
  | Some budget_ns ->
      let label =
        match kind with Cold_boot -> "boot-attempt" | Restore _ -> "snapshot-restore"
      in
      Charge.set_deadline r.ch (Some (Deadline.arm clk ~label ~budget_ns))
  | None -> ());
  match
    match kind with
    | Cold_boot -> boot r
    | Restore { path; working_set_pages } -> restore r ~path ~working_set_pages
  with
  | stats ->
      Charge.set_deadline r.ch None;
      r.success_ns <- Clock.elapsed_since clk mark;
      Ok stats
  | exception e -> (
      Charge.set_deadline r.ch None;
      match (Failure.classify e, kind) with
      | None, _ -> raise e (* programming error, not a boot failure *)
      | Some f, Restore _ ->
          (* a typed corruption, or a deadline overrun on a cold snapshot
             read: degrade to cold boots on the same clock, so the
             fallback's full cost lands in one report *)
          add_recovery r "failed-restore" mark;
          push r (Failure.Fell_back_to_cold_boot f);
          go r Cold_boot retries_left
      | Some f, Cold_boot ->
          add_recovery r "failed-attempt" mark;
          recover r f retries_left)

and recover r f retries_left =
  let clk = Charge.clock r.ch in
  match (f, r.fleet) with
  | Failure.Transient _, Some fl when retries_left > 0 && fl.retries_left <= 0 ->
      (* per-boot retries remain, but the campaign budget is dry: fail
         fast instead of spinning through a storm *)
      push r (Failure.Retry_budget_exhausted f);
      Error f
  | Failure.Transient _, fleet when retries_left > 0 ->
      Option.iter (fun fl -> fl.retries_left <- fl.retries_left - 1) fleet;
      let backoff = backoff_base_ns * (1 lsl (r.max_retries - retries_left)) in
      let mark = Clock.now clk in
      Charge.pay_span r.ch Trace.In_monitor "retry-backoff" backoff;
      add_recovery r "retry-backoff" mark;
      push r (Failure.Retried { attempt = r.attempts; failure = f; backoff_ns = backoff });
      go r Cold_boot (retries_left - 1)
  | Failure.Deadline_exceeded _, _
    when (not r.deadline_fallback_used) && Option.is_some r.budget ->
      (* the attempt aborted at a phase boundary past its budget; one
         fallback attempt runs with a fresh budget *)
      r.deadline_fallback_used <- true;
      push r
        (Failure.Deadline_aborted { failure = f; fresh_budget_ns = Option.get r.budget });
      go r Cold_boot retries_left
  | Failure.Bad_reloc _, _
    when (not r.rederived) && r.vm.Imk_monitor.Vm_config.relocs_path <> None -> (
      r.rederived <- true;
      let mark = Clock.now clk in
      match
        rederive_relocs r.ch r.ctx r.vm
          (Option.get r.vm.Imk_monitor.Vm_config.relocs_path)
      with
      | () ->
          add_recovery r "rederive-relocs" mark;
          push r (Failure.Rederived_relocs f);
          go r Cold_boot retries_left
      | exception e2 -> (
          (* the kernel image is corrupt too: report that, typed *)
          match Failure.classify e2 with
          | Some f2 ->
              add_recovery r "rederive-relocs" mark;
              Error f2
          | None -> raise e2))
  | _ -> Error f

(* what both entry points are: a fresh clock for [seed], then the
   breaker's verdict — a rejection is reported, an admission runs the
   state machine from [first] with the retries the policy allows (none
   for a half-open probe) *)
let supervise_from ~first ~jitter ?tap ?arena ?fleet ~seed ~ctx vm =
  let policy = match fleet with Some f -> f.policy | None -> default_policy in
  let trace, ch =
    Imk_vclock.Charge.fresh ?jitter_seed:(if jitter then Some seed else None) ()
  in
  let vm = { vm with Imk_monitor.Vm_config.seed } in
  match admit fleet with
  | Reject failure -> reject_report ?tap ch trace failure
  | (Admit | Probe) as adm ->
      let probing = adm = Probe in
      let max_retries = if probing then 0 else policy.max_retries in
      let r =
        { ch; ctx; vm; arena; fleet; budget = policy.attempt_budget_ns; max_retries;
          attempts = 0; events = []; recovery = []; rederived = false;
          deadline_fallback_used = false; success_ns = 0 }
      in
      let outcome = go r first max_retries in
      finish ?tap trace ~outcome ~attempts:r.attempts
        ~events:(List.rev_append r.events (breaker_note fleet ~probing outcome))
        ~recovery_rev:r.recovery ~success_ns:r.success_ns

let supervise ?(jitter = true) ?tap ?arena ?fleet ~seed ~ctx vm =
  supervise_from ~first:Cold_boot ~jitter ?tap ?arena ?fleet ~seed ~ctx vm

let supervise_snapshot ?(jitter = true) ?tap ?arena ?fleet ~seed ~ctx
    ~snapshot_path ~working_set_pages vm =
  supervise_from
    ~first:(Restore { path = snapshot_path; working_set_pages })
    ~jitter ?tap ?arena ?fleet ~seed ~ctx vm
