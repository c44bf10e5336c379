let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let pp_bytes ppf n =
  let f = float_of_int n in
  if n >= 1024 * 1024 * 1024 then
    Format.fprintf ppf "%.1fG" (f /. (1024. *. 1024. *. 1024.))
  else if n >= 1024 * 1024 then Format.fprintf ppf "%.1fM" (f /. (1024. *. 1024.))
  else if n >= 1024 then Format.fprintf ppf "%.0fK" (f /. 1024.)
  else Format.fprintf ppf "%d" n

let bytes_to_string n = Format.asprintf "%a" pp_bytes n
let ns_to_ms ns = float_of_int ns /. 1_000_000.
let ns_float_to_ms ns = ns /. 1_000_000.
let ms_to_ns ms = int_of_float (Float.round (ms *. 1_000_000.))
let pp_ms ppf ns = Format.fprintf ppf "%.2f ms" (ns_to_ms ns)
let ms_string ns = Format.asprintf "%a" pp_ms ns
