type elf_plan = {
  elf : Imk_elf.Types.t;
  alloc : Imk_elf.Types.section list;
  fn_sections : (int * int) array;
  fn_table : Imk_randomize.Fgkaslr.table;
  image_memsz : int;
  mutable kinfo :
    (Imk_kernel.Config.t * Imk_guest.Boot_params.kernel_info) option;
}

type bz_plan = {
  bz : Imk_kernel.Bzimage.t;
  mutable l_elf : (int * Imk_elf.Types.t) option;
  mutable l_relocs : (int * Imk_elf.Relocation.table) option;
  mutable l_fns : (Imk_elf.Types.t * (int * int) array) option;
  mutable l_kinfo :
    (Imk_elf.Types.t * Imk_kernel.Config.t
    * Imk_guest.Boot_params.kernel_info)
      option;
}

let build_elf_plan bytes =
  let elf = Imk_elf.Parser.parse bytes in
  let fn_sections = Imk_randomize.Loadelf.fn_sections elf in
  {
    elf;
    alloc = Imk_randomize.Loadelf.alloc_sections elf;
    fn_sections;
    fn_table = Imk_randomize.Fgkaslr.table ~sections:fn_sections;
    image_memsz = Imk_randomize.Loadelf.image_memsz elf;
    kinfo = None;
  }

let build_bz_plan bytes =
  {
    bz = Imk_kernel.Bzimage.decode bytes;
    l_elf = None;
    l_relocs = None;
    l_fns = None;
    l_kinfo = None;
  }

type payload = ..

type payload +=
  | Pelf of elf_plan
  | Pbz of bz_plan
  | Prelocs of Imk_elf.Relocation.table

type entry = {
  len : int;
  crc : int;
  mutable known : bytes list;
      (* physically distinct, content-identical objects already verified
         against [crc] — the page cache serves each boot the same backing
         store, so this list stays tiny (one per workspace clone) *)
  payload : payload;
}

type t = {
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable hits : int;
  mutable builds : int;
}

let create () =
  { mu = Mutex.create (); entries = Hashtbl.create 16; hits = 0; builds = 0 }

let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | r ->
      Mutex.unlock t.mu;
      r
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let known_limit = 8

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

type 'a lookup = Hit of 'a | Miss of int * int

(* Identity fast path first: CRC32 of a full-size vmlinux costs more than
   parsing it, so per-boot hashing would be a net loss. The CRC runs only
   when a physically new object shows up under a known path. *)
let lookup t ~path ~bytes ~select =
  let quick =
    with_mu t (fun () ->
        match Hashtbl.find_opt t.entries path with
        | None -> None
        | Some e -> (
            match select e.payload with
            | Some p when List.memq bytes e.known ->
                t.hits <- t.hits + 1;
                Some p
            | _ -> None))
  in
  match quick with
  | Some p -> Hit p
  | None -> (
      let len = Bytes.length bytes in
      let crc = Imk_util.Crc.crc32 bytes 0 len in
      let slow =
        with_mu t (fun () ->
            match Hashtbl.find_opt t.entries path with
            | Some e when e.len = len && e.crc = crc -> (
                match select e.payload with
                | Some p ->
                    if not (List.memq bytes e.known) then
                      e.known <- bytes :: take (known_limit - 1) e.known;
                    t.hits <- t.hits + 1;
                    Some p
                | None -> None)
            | _ -> None)
      in
      match slow with Some p -> Hit p | None -> Miss (len, crc))

let store t ~path ~len ~crc ~bytes payload =
  with_mu t (fun () ->
      (* last writer wins: racing builds of identical content produce
         interchangeable immutable plans, and a content change (fault
         campaign corrupting then restoring an image) simply replaces the
         entry — the CRC check routes every reader to a matching plan *)
      Hashtbl.replace t.entries path { len; crc; known = [ bytes ]; payload };
      t.builds <- t.builds + 1)

(* the table entries' form of the memo protocol below: look up under
   the lock, build a miss outside it, store under the lock *)
let cached t ~path bytes ~select ~wrap ~build =
  match lookup t ~path ~bytes ~select with
  | Hit p -> p
  | Miss (len, crc) ->
      let p = build bytes in
      store t ~path ~len ~crc ~bytes (wrap p);
      p

let elf_plan t ~path bytes =
  cached t ~path bytes ~build:build_elf_plan
    ~select:(function Pelf p -> Some p | _ -> None)
    ~wrap:(fun p -> Pelf p)

let bz_plan t ~path bytes =
  cached t ~path bytes ~build:build_bz_plan
    ~select:(function Pbz p -> Some p | _ -> None)
    ~wrap:(fun p -> Pbz p)

let relocs t ~path bytes =
  cached t ~path bytes ~build:Imk_elf.Relocation.decode
    ~select:(function Prelocs r -> Some r | _ -> None)
    ~wrap:(fun r -> Prelocs r)

(* The one memo protocol behind every slot: read the slot under the
   lock, build outside it (a build can be long, and a failed build must
   store nothing), store under the lock. Racing builders of one slot
   compute interchangeable values from the same immutable input, so the
   last store wins. *)
let memo t ~get ~set ~build =
  match with_mu t get with
  | Some v -> v
  | None ->
      let v = build () in
      with_mu t (fun () -> set v);
      v

let kernel_info t_opt (p : elf_plan) config =
  let build () = Imk_guest.Boot_params.kernel_info_of_elf p.elf config in
  match t_opt with
  | None -> build ()
  | Some t ->
      memo t ~build
        ~get:(fun () ->
          match p.kinfo with
          | Some (c0, ki) when c0 = config -> Some ki
          | _ -> None)
        ~set:(fun ki -> p.kinfo <- Some (config, ki))

let loader_hooks t_opt (p : bz_plan) =
  match t_opt with
  | None -> Imk_bootstrap.Loader.default_hooks
  | Some t ->
      (* The loader hands [parse_vmlinux] the whole decompressed payload
         (vmlinux with the relocation table concatenated after it) and
         [decode_relocs] the relocs part — both from this plan's
         [Bzimage.unpack] memo, decoded once and CRC-verified. The
         content is fixed per plan, so memoizing by part length inside
         this content-addressed plan is sound — a corrupted image lands
         in a different plan (or fails decompression) and never sees
         these memos. *)
      {
        Imk_bootstrap.Loader.parse_vmlinux =
          (fun v ->
            let n = Bytes.length v in
            memo t
              ~build:(fun () -> Imk_elf.Parser.parse v)
              ~get:(fun () ->
                match p.l_elf with
                | Some (n0, e) when n0 = n -> Some e
                | _ -> None)
              ~set:(fun e -> p.l_elf <- Some (n, e)));
        decode_relocs =
          (fun r ->
            let n = Bytes.length r in
            memo t
              ~build:(fun () -> Imk_elf.Relocation.decode r)
              ~get:(fun () ->
                match p.l_relocs with
                | Some (n0, tbl) when n0 = n -> Some tbl
                | _ -> None)
              ~set:(fun tbl -> p.l_relocs <- Some (n, tbl)));
        fn_sections =
          (fun elf ->
            memo t
              ~build:(fun () -> Imk_randomize.Loadelf.fn_sections elf)
              ~get:(fun () ->
                match p.l_fns with
                | Some (e0, f) when e0 == elf -> Some f
                | _ -> None)
              ~set:(fun f -> p.l_fns <- Some (elf, f)));
        kernel_info =
          (fun elf config ->
            memo t
              ~build:(fun () ->
                Imk_guest.Boot_params.kernel_info_of_elf elf config)
              ~get:(fun () ->
                match p.l_kinfo with
                | Some (e0, c0, ki) when e0 == elf && c0 = config -> Some ki
                | _ -> None)
              ~set:(fun ki -> p.l_kinfo <- Some (elf, config, ki)));
      }

let stats t = with_mu t (fun () -> (t.hits, t.builds))
