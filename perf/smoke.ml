(* Smoke test of the host-time benchmark, run by `dune runtest`.

   usage: smoke.exe MAIN_EXE BENCHMARK_JSON

   Every workload named in BENCHMARK.json runs at --quick size twice
   untraced and once traced, each in its own process. Both untraced runs
   must be correct and agree exactly on virt_digest and allocation; the
   metric names each run prints must be exactly the end_to_end (untraced)
   or per_layer (traced) names of BENCHMARK.json. *)

module J = Imk_util.Minjson

let main_exe =
  let p = Sys.argv.(1) in
  if Filename.is_implicit p then Filename.concat Filename.current_dir_name p else p

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf smoke: " ^ s);
      exit 1)
    fmt

let bench = J.parse (In_channel.with_open_text Sys.argv.(2) In_channel.input_all)

let names key =
  List.map
    (fun m -> J.to_string (J.member_exn "name" m))
    (J.to_list (J.member_exn key bench))

let run workload ~trace =
  let args =
    [ main_exe; "--workload"; workload; "--quick"; "--seed"; "1"; "--trace"; trace ]
  in
  let ic = Unix.open_process_args_in main_exe (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited non-zero" (String.concat " " args));
  let result = J.parse (List.nth lines (List.length lines - 1)) in
  if J.member_exn "correct" result <> J.Bool true then fail "%s: not correct" workload;
  if J.to_int (J.member_exn "failed" result) <> 0 then fail "%s: failed ops" workload;
  let digest =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; "virt_digest"; d; _ ] -> Some d
        | _ -> None)
      lines
  in
  let metrics =
    match J.member_exn "metrics" result with
    | J.Obj kvs -> kvs
    | _ -> fail "%s: metrics is not an object" workload
  in
  (digest, metrics)

let same_names workload what expected metrics =
  let got = List.sort String.compare (List.map fst metrics) in
  if got <> List.sort String.compare expected then
    fail "%s: printed %s metrics differ from BENCHMARK.json" workload what

let () =
  List.iter
    (fun w ->
      let d1, m1 = run w ~trace:"0" in
      let d2, m2 = run w ~trace:"0" in
      same_names w "end_to_end" (names "end_to_end") m1;
      if d1 = None || d1 <> d2 then fail "%s: virt_digest differs between runs" w;
      let alloc m = J.member_exn "value" (List.assoc "alloc_mb_per_op" m) in
      if alloc m1 <> alloc m2 then fail "%s: alloc_mb_per_op differs between runs" w;
      let _, mt = run w ~trace:"1" in
      same_names w "per_layer" (names "per_layer") mt;
      Printf.printf "perf smoke: %s ok\n" w)
    (names "workloads")
