(* Reference model of Imk_fleet.Sim's queueing: a FIFO multi-server
   queue with drops, written over lists with no event heap, ring buffer
   or sample arrays. Requests are admitted in arrival order, and an
   admitted request starts at the later of its arrival and the earliest
   time some server frees (FIFO service needs nothing more). A request
   that finds every server busy and [queue_capacity] requests still
   waiting is dropped.

   It knows nothing of the warm pool or the weather, so it describes Sim
   only for cells whose cold, warm and fault costs are one array: then
   request [i] costs [costs.(i mod n)] whatever its start class.
   test_fleet's differential property pins Sim's completed and dropped
   counts, queue waits, sojourns and queue depths to it, like
   Crc.crc32 to crc32_ref. *)

module Stats = Imk_util.Stats

type result = {
  completed : int;
  dropped : int;
  queue_wait : Stats.summary;
  sojourn : Stats.summary;
  queue_depth : Stats.summary;
}

(* Sim summarizes radix-sorted samples, so sort before summing: the
   moments then add in the same order *)
let summary = function
  | [] -> Stats.empty
  | xs -> Stats.summarize (List.map float_of_int (List.sort compare xs))

(* the first [x] in the list becomes [y] *)
let rec replace x y = function
  | [] -> []
  | h :: tl -> if h = x then y :: tl else h :: replace x y tl

let run ~arrival ~seed ~requests ~servers ~queue_capacity ~costs =
  let n = Array.length costs in
  (* [free]: the time each server next frees; [starts]: the start times
     of every admitted request so far *)
  let rec go i t free starts waits sojourns depths dropped =
    if i = requests then
      {
        completed = List.length starts;
        dropped;
        queue_wait = summary waits;
        sojourn = summary sojourns;
        queue_depth = summary depths;
      }
    else
      let t = t + Imk_fleet.Arrival.gap_ns arrival ~seed ~index:i in
      let earliest = List.fold_left min max_int free in
      (* still waiting at [t]: admitted, but not started by [t] *)
      let depth = List.length (List.filter (fun s -> s > t) starts) in
      let depths = depth :: depths in
      if earliest > t && depth >= queue_capacity then
        go (i + 1) t free starts waits sojourns depths (dropped + 1)
      else
        let start = max t earliest in
        let finish = start + costs.(i mod n) in
        go (i + 1) t
          (replace earliest finish free)
          (start :: starts)
          ((start - t) :: waits)
          ((finish - t) :: sojourns)
          depths dropped
  in
  go 0 0 (List.init servers (fun _ -> 0)) [] [] [] [] 0
