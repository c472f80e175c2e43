type t = { title : string; header : string list; mutable rows : string list list }

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let cell_f x =
  if not (Float.is_finite x) then "-"
  else if x <> 0.0 && (Float.abs x < 0.01 || Float.abs x >= 1e7) then Printf.sprintf "%.3e" x
  else Printf.sprintf "%.2f" x

let columns t = List.length t.header

let pad_row t row =
  let n = columns t in
  let len = List.length row in
  if len >= n then row else row @ List.init (n - len) (fun _ -> "")

let print ppf t =
  let rows = List.rev_map (pad_row t) t.rows in
  let all = t.header :: rows in
  let widths = Array.make (columns t) 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  List.iter measure all;
  let line row =
    let cells = List.mapi (fun i cell -> Printf.sprintf "%-*s" widths.(i) cell) row in
    Format.fprintf ppf "  %s@." (String.concat "  " cells)
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  line t.header;
  let rule = List.map (fun w -> String.make w '-') (Array.to_list widths) in
  line rule;
  List.iter line rows;
  Format.fprintf ppf "@."

let escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_csv t =
  let rows = List.rev_map (pad_row t) t.rows in
  let render row = String.concat "," (List.map escape row) in
  String.concat "\n" (List.map render (t.header :: rows)) ^ "\n"
