let to_chrome_json ?(process_name = "microvm-boot") trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
        \"args\":{\"name\":\"%s\"}}"
       (Imk_util.Minjson.escape process_name));
  List.iter
    (fun (s : Trace.span) ->
      let label = Trace.display_name s in
      let ts_us = float_of_int s.start_ns /. 1000. in
      let dur_us = float_of_int (s.stop_ns - s.start_ns) /. 1000. in
      if s.stop_ns = s.start_ns then
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\
              \"s\":\"t\",\"cat\":\"%s\"}"
             (Imk_util.Minjson.escape label) ts_us
             (Imk_util.Minjson.escape (Trace.phase_name s.phase)))
      else
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
              \"pid\":1,\"tid\":1,\"cat\":\"%s\"}"
             (Imk_util.Minjson.escape label) ts_us dur_us
             (Imk_util.Minjson.escape (Trace.phase_name s.phase))))
    (Trace.spans trace);
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let write_file ?process_name trace ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json ?process_name trace);
  close_out oc
