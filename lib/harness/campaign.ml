let map ~jobs ?(prime = 0) ~tasks f =
  if tasks < 0 then invalid_arg "Campaign.map: negative task count";
  let prime = max 0 (min prime tasks) in
  let primed = Imk_util.Par.map_tasks ~tasks:prime f in
  let rest =
    Imk_util.Par.map_tasks ~jobs:(max 1 jobs) ~tasks:(tasks - prime) (fun i ->
        f (prime + i))
  in
  Array.append primed rest

let run ~jobs ?(prime = 0) ~cache ~tasks f =
  map ~jobs ~prime ~tasks (fun i ->
      f ~cache:(if i < prime then cache else Imk_storage.Page_cache.clone cache) i)
