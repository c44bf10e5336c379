(* Reference model of Imk_randomize.Fgkaslr.displace: the per-entry
   binary search of the in-kernel FGKASLR fixup (paper §3.2), over the
   sections' indices sorted by link address. Production ranks sections
   in link order and reads a bucket index instead; test_randomize's
   differential property pins every lookup to this one, like
   Crc.crc32 to crc32_ref. *)

type t = {
  old_va : int array;
  new_va : int array;
  size : int array;
  sorted_old : int array;  (* indices in link order *)
}

(* [of_pairs pairs] takes [(old_va, new_va, size)] per section, in any
   order — the shape of [Fgkaslr.displacement_pairs] — and ranks them in
   link order: by [old_va], then size (empty sections before the one they
   share a start with, as Loadelf.fn_sections sorts them), then position *)
let of_pairs pairs =
  let old_va = Array.map (fun (o, _, _) -> o) pairs in
  let size = Array.map (fun (_, _, s) -> s) pairs in
  let sorted_old = Array.init (Array.length pairs) (fun i -> i) in
  Array.stable_sort
    (fun a b -> compare (old_va.(a), size.(a)) (old_va.(b), size.(b)))
    sorted_old;
  { old_va; new_va = Array.map (fun (_, nv, _) -> nv) pairs; size; sorted_old }

(* greatest section whose old_va <= va; the displacement applies only if
   va falls inside that section *)
let displace t va =
  let found = ref (-1) in
  let lo = ref 0 and hi = ref (Array.length t.sorted_old - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let idx = t.sorted_old.(mid) in
    if t.old_va.(idx) <= va then begin
      found := idx;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found >= 0 && va < t.old_va.(!found) + t.size.(!found) then
    va + (t.new_va.(!found) - t.old_va.(!found))
  else va
