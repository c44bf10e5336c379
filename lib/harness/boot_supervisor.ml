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

let default_max_retries = 3

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
    max_retries = default_max_retries;
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

let resolve_retries max_retries fleet =
  match (max_retries, fleet) with
  | Some m, _ -> m
  | None, Some f -> f.policy.max_retries
  | None, None -> default_max_retries

let attempt_budget fleet =
  match fleet with
  | Some { policy = { attempt_budget_ns = Some b; _ }; _ } -> Some b
  | _ -> None

let reject_report ?tap ch trace failure =
  let clk = Charge.clock ch in
  let mark = Clock.now clk in
  Charge.pay_span ch Trace.In_monitor "breaker-short-circuit" short_circuit_ns;
  finish ?tap trace ~outcome:(Error failure) ~attempts:0
    ~events:[ Failure.Breaker_short_circuit { failure } ]
    ~recovery_rev:[ ("breaker-short-circuit", Clock.elapsed_since clk mark) ]
    ~success_ns:0

let supervise_on ch ?arena ?fleet ~max_retries ~ctx
    (vm : Imk_monitor.Vm_config.t) =
  let clk = Charge.clock ch in
  let events = ref [] in
  let recovery = ref [] (* reverse occurrence order *) in
  let push e = events := e :: !events in
  let add_recovery label mark =
    recovery := (label, Clock.elapsed_since clk mark) :: !recovery
  in
  let attempts = ref 0 in
  let budget = attempt_budget fleet in
  let deadline =
    Option.map (fun b -> Deadline.arm clk ~label:"boot-attempt" ~budget_ns:b)
      budget
  in
  let boot_attempt () =
    incr attempts;
    (match deadline with
    | Some d ->
        (* every attempt gets a fresh budget; recovery work between
           attempts runs with the deadline detached *)
        Deadline.rearm d ~budget_ns:(Option.get budget);
        Charge.set_deadline ch (Some d)
    | None -> ());
    Fun.protect
      ~finally:(fun () -> Charge.set_deadline ch None)
      (fun () ->
        match arena with
        | None ->
            (Imk_monitor.Vmm.boot ?inject:ctx.inject ?plans:ctx.plans ch
               ctx.cache vm)
              .Imk_monitor.Vmm.stats
        | Some a ->
            Imk_memory.Arena.with_buffer a
              ~size:vm.Imk_monitor.Vm_config.mem_bytes (fun mem ->
                (Imk_monitor.Vmm.boot ?inject:ctx.inject ?plans:ctx.plans ~mem
                   ch ctx.cache vm)
                  .Imk_monitor.Vmm.stats))
  in
  let campaign_can_retry () =
    match fleet with None -> true | Some f -> f.retries_left > 0
  in
  let consume_campaign_retry () =
    match fleet with None -> () | Some f -> f.retries_left <- f.retries_left - 1
  in
  let rederived = ref false in
  let deadline_fallback_used = ref false in
  let success_ns = ref 0 in
  let rec go retries_left =
    let mark = Clock.now clk in
    match boot_attempt () with
    | stats ->
        success_ns := Clock.elapsed_since clk mark;
        Ok stats
    | exception e -> (
        match Failure.classify e with
        | None -> raise e (* programming error, not a boot failure *)
        | Some f ->
            add_recovery "failed-attempt" mark;
            recover f retries_left)
  and recover f retries_left =
    match f with
    | Failure.Transient _ when retries_left > 0 && campaign_can_retry () ->
        consume_campaign_retry ();
        let backoff = backoff_base_ns * (1 lsl (max_retries - retries_left)) in
        let mark = Clock.now clk in
        Charge.pay_span ch Trace.In_monitor "retry-backoff" backoff;
        add_recovery "retry-backoff" mark;
        push (Failure.Retried { attempt = !attempts; failure = f; backoff_ns = backoff });
        go (retries_left - 1)
    | Failure.Transient _ when retries_left > 0 ->
        (* per-boot retries remain, but the campaign budget is dry:
           fail fast instead of spinning through a storm *)
        push (Failure.Retry_budget_exhausted f);
        Error f
    | Failure.Deadline_exceeded _
      when (not !deadline_fallback_used) && Option.is_some deadline ->
        (* the attempt aborted at a phase boundary past its budget; one
           fallback attempt runs with a fresh budget *)
        deadline_fallback_used := true;
        push
          (Failure.Deadline_aborted
             { failure = f; fresh_budget_ns = Option.get budget });
        go retries_left
    | Failure.Bad_reloc _
      when (not !rederived) && vm.Imk_monitor.Vm_config.relocs_path <> None -> (
        rederived := true;
        let mark = Clock.now clk in
        match
          rederive_relocs ch ctx vm
            (Option.get vm.Imk_monitor.Vm_config.relocs_path)
        with
        | () ->
            add_recovery "rederive-relocs" mark;
            push (Failure.Rederived_relocs f);
            go retries_left
        | exception e2 -> (
            (* the kernel image is corrupt too: report that, typed *)
            match Failure.classify e2 with
            | Some f2 ->
                add_recovery "rederive-relocs" mark;
                Error f2
            | None -> raise e2))
    | _ -> Error f
  in
  let outcome = go max_retries in
  (outcome, !attempts, List.rev !events, !recovery, !success_ns)

(* what both entry points share: a fresh clock for [seed], then the
   breaker's verdict — a rejection is reported, an admission runs [k]
   with the retries the policy allows (none for a half-open probe) *)
let admitted ~jitter ?tap ?fleet ?max_retries ~seed vm k =
  let max_retries = resolve_retries max_retries fleet in
  let trace, ch =
    Boot_runner.fresh_charge ?jitter_seed:(if jitter then Some seed else None) ()
  in
  let vm = { vm with Imk_monitor.Vm_config.seed } in
  match admit fleet with
  | Reject failure -> reject_report ?tap ch trace failure
  | (Admit | Probe) as adm ->
      let probing = adm = Probe in
      k ch vm ~max_retries:(if probing then 0 else max_retries)
        ~finish:(fun ~outcome ~attempts ~events ->
          finish ?tap trace ~outcome ~attempts
            ~events:(events @ breaker_note fleet ~probing outcome))

let supervise ?(jitter = true) ?tap ?arena ?fleet ?max_retries ~seed ~ctx vm =
  admitted ~jitter ?tap ?fleet ?max_retries ~seed vm
    (fun ch vm ~max_retries ~finish ->
      let outcome, attempts, events, recovery_rev, success_ns =
        supervise_on ch ?arena ?fleet ~max_retries ~ctx vm
      in
      finish ~outcome ~attempts ~events ~recovery_rev ~success_ns)

let supervise_snapshot ?(jitter = true) ?tap ?arena ?fleet ?max_retries ~seed
    ~ctx ~snapshot_path ~working_set_pages vm =
  admitted ~jitter ?tap ?fleet ?max_retries ~seed vm
    (fun ch vm ~max_retries ~finish ->
      let clk = Charge.clock ch in
      let restore_deadline =
        Option.map
          (fun b -> Deadline.arm clk ~label:"snapshot-restore" ~budget_ns:b)
          (attempt_budget fleet)
      in
      let restore_mark = Clock.now clk in
      match
        Charge.set_deadline ch restore_deadline;
        Fun.protect
          ~finally:(fun () -> Charge.set_deadline ch None)
          (fun () ->
            let snap =
              Charge.span ch Trace.In_monitor "snapshot-load" (fun () ->
                  let blob, cached =
                    Imk_storage.Page_cache.read ctx.cache snapshot_path
                  in
                  Charge.pay_using ch Sched.Disk
                    (Cost_model.read_cost (Charge.model ch) ~cached
                       (modeled vm (Bytes.length blob)));
                  Imk_monitor.Snapshot.load ~config:vm blob)
            in
            Imk_monitor.Snapshot.restore ch snap ~working_set_pages)
      with
      | r ->
          finish ~outcome:(Ok r.Imk_monitor.Vmm.stats) ~attempts:1 ~events:[]
            ~recovery_rev:[]
            ~success_ns:(Clock.elapsed_since clk restore_mark)
      | exception e -> (
          match Failure.classify e with
          | None -> raise e
          | Some f ->
              (* restore failure (a typed corruption, or a deadline
                 overrun on a cold snapshot read): degrade to a
                 supervised cold boot on the same virtual clock, so the
                 fallback's full cost lands in one report *)
              let restore_ns = Clock.elapsed_since clk restore_mark in
              let outcome, attempts, events, recovery_rev, success_ns =
                supervise_on ch ?arena ?fleet ~max_retries ~ctx vm
              in
              finish ~outcome ~attempts:(attempts + 1)
                ~events:(Failure.Fell_back_to_cold_boot f :: events)
                ~recovery_rev:(recovery_rev @ [ ("failed-restore", restore_ns) ])
                ~success_ns))
