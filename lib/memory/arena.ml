(* Guest-memory arena: recycle Guest_mem buffers across boots.

   Guest memory is sparse, so a fresh guest is cheap; a recycled one also
   brings the 64 KiB storage chunks its last scrub parked on its spare
   list, so a boot into it allocates no guest memory (the virtual clock
   charges for zeroing stay with the boot path — this pool only removes
   *real* allocation work, per the "virtual time, real work" rule).
   Buffers are scrubbed on release, so a borrowed buffer is
   indistinguishable from a fresh [Guest_mem.create]: all-zero, empty
   dirty extent, no bytes from the previous tenant. Firecracker wins the
   same way by recycling microVM resources across instantiations.

   The pool is shared between domains (the harness fans boots out over a
   domain pool), so the free lists live behind a mutex. Scrubbing happens
   outside the lock. *)

type t = {
  lock : Mutex.t;
  free : (int, Guest_mem.t list) Hashtbl.t;  (* size -> scrubbed buffers *)
  mutable pooled_bytes : int;
  mutable hits : int;
  mutable misses : int;
}

(* free buffers kept per distinct size (one per worker of a default-size
   domain pool) and in total (each guest counted at its full size) *)
let max_per_size = max 2 (Domain.recommended_domain_count ())
let max_bytes = 8 * 1024 * 1024 * 1024

let create () =
  {
    lock = Mutex.create ();
    free = Hashtbl.create 4;
    pooled_bytes = 0;
    hits = 0;
    misses = 0;
  }

let borrow t ~size =
  if size <= 0 then invalid_arg "Arena.borrow: non-positive size";
  Mutex.lock t.lock;
  let reused =
    match Hashtbl.find_opt t.free size with
    | Some (m :: rest) ->
        Hashtbl.replace t.free size rest;
        t.pooled_bytes <- t.pooled_bytes - size;
        t.hits <- t.hits + 1;
        Some m
    | Some [] | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.lock;
  match reused with Some m -> m | None -> Guest_mem.create ~size

let release t mem =
  (* the expensive part — zeroing the dirty extent — runs outside the
     lock so concurrent borrowers are not serialized behind it *)
  Guest_mem.scrub mem;
  let size = Guest_mem.size mem in
  Mutex.lock t.lock;
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.free size) in
  if
    List.length existing < max_per_size
    && t.pooled_bytes + size <= max_bytes
  then begin
    Hashtbl.replace t.free size (mem :: existing);
    t.pooled_bytes <- t.pooled_bytes + size
  end;
  (* otherwise drop it on the floor for the GC — the pool is full *)
  Mutex.unlock t.lock

let with_buffer t ~size f =
  let mem = borrow t ~size in
  match f mem with
  | v ->
      release t mem;
      v
  | exception e ->
      (* the bracket's whole point: a boot that dies mid-run must neither
         leak its buffer nor return it unscrubbed — release scrubs *)
      release t mem;
      raise e

let pooled_bytes t =
  Mutex.lock t.lock;
  let n = t.pooled_bytes in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let s = (t.hits, t.misses) in
  Mutex.unlock t.lock;
  s
