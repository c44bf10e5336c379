type t = {
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~headers = { headers; rows = [] }

let add_row t cells =
  let n = List.length t.headers in
  let k = List.length cells in
  if k > n then invalid_arg "Table.add_row: more cells than headers";
  let padded =
    if k = n then cells else cells @ List.init (n - k) (fun _ -> "")
  in
  t.rows <- padded :: t.rows

let headers t = t.headers

let rows t = List.rev t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let measure cells =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  measure t.headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let pad_left s w = String.make (w - String.length s) ' ' ^ s in
  let pad_right s w = s ^ String.make (w - String.length s) ' ' in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        (* first column is labels: left-aligned; the rest right-aligned *)
        let s = if i = 0 then pad_right c widths.(i) else pad_left c widths.(i) in
        Buffer.add_string buf s)
      cells;
    Buffer.add_char buf '\n'
  in
  let emit_rule () =
    let total =
      Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
    in
    Buffer.add_string buf (String.make total '-');
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  emit_rule ();
  List.iter emit_cells rows;
  Buffer.contents buf

let print t = print_string (render t)
