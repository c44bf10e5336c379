let map ~jobs ~tasks f =
  if tasks < 0 then invalid_arg "Campaign.map: negative task count";
  if tasks = 0 then [||]
  else
    let first = f 0 in
    Array.append [| first |]
      (Imk_util.Par.map_tasks ~jobs:(max 1 jobs) ~tasks:(tasks - 1) (fun i ->
           f (i + 1)))

let run ~jobs ~cache ~tasks f =
  map ~jobs ~tasks (fun i ->
      f ~cache:(if i = 0 then cache else Imk_storage.Page_cache.clone cache) i)
