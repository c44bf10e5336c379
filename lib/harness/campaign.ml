let map ~jobs ~tasks f =
  Imk_util.Par.map_tasks ~jobs:(max 1 jobs) ~tasks (fun ~worker:_ i -> f i)

let run ~jobs ?(prime = 0) ~cache ~tasks f =
  if tasks < 0 then invalid_arg "Campaign.run: negative task count";
  let prime = max 0 (min prime tasks) in
  let primed = map ~jobs:1 ~tasks:prime (fun i -> f ~cache i) in
  let rest =
    map ~jobs ~tasks:(tasks - prime) (fun i ->
        f ~cache:(Imk_storage.Page_cache.clone cache) (prime + i))
  in
  Array.append primed rest
