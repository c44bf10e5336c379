type t = {
  files : (string, bytes) Hashtbl.t;
  faults : (string, bytes -> bytes) Hashtbl.t;
}

let create () = { files = Hashtbl.create 16; faults = Hashtbl.create 4 }
let add t ~name data = Hashtbl.replace t.files name data

let find t name =
  match Hashtbl.find_opt t.files name with
  | None -> raise Not_found
  | Some b -> (
      match Hashtbl.find_opt t.faults name with
      | None -> b
      (* the fault sees a private copy: stored images are shared (other
         disks may alias the same bytes), so a corrupting fault must
         never mutate the backing store *)
      | Some f -> f (Bytes.copy b))

let set_fault t ~name f = Hashtbl.replace t.faults name f

let mem t name = Hashtbl.mem t.files name
let size t name = Bytes.length (find t name)
let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.files []
