(* Reference model of the memcached codec's incremental parser: the
   original list-based implementation (string-concatenating buffer,
   [String.sub] per frame, [split_on_char] tokens), kept only so the
   in-place parser of [Kvserve.Protocol] can be checked against it.

   It differs from the library on purpose in one case only: a command
   line longer than [max_line_bytes].  Here the length check runs only
   while no newline is buffered, so the outcome depends on how the bytes
   were chunked; the library answers every such line with exactly one
   [CLIENT_ERROR line too long].  Differential tests keep lines short. *)

module P = Kvserve.Protocol

let max_line_bytes = 4096

let dec_opt s =
  let n = String.length s in
  if n = 0 || n > 15 then None
  else begin
    let v = ref 0 in
    let ok = ref true in
    String.iter
      (fun c -> if c >= '0' && c <= '9' then v := (!v * 10) + Char.code c - 48 else ok := false)
      s;
    if !ok then Some !v else None
  end

type state = Line | Body of { key : string; flags : int; nbytes : int }
type parser_ = { mutable data : string; mutable state : state }

let parser_create () = { data = ""; state = Line }
let feed p chunk = if chunk <> "" then p.data <- p.data ^ chunk
let buffered p = String.length p.data
let client_error msg = P.Protocol_error (Printf.sprintf "CLIENT_ERROR %s\r\n" msg)
let consume p n = p.data <- String.sub p.data n (String.length p.data - n)
let tokens line = List.filter (fun t -> t <> "") (String.split_on_char ' ' line)

(* The key rule, stated here rather than taken from the library so a
   bug in the library's rule shows up as a difference. *)
let valid k =
  let n = String.length k in
  n > 0 && n <= P.max_key_bytes
  && (let ok = ref true in
      String.iter (fun c -> if c <= ' ' || c = '\x7f' then ok := false) k;
      !ok)

(* [None] when a [set] line armed body mode. *)
let parse_line p line =
  match tokens line with
  | [] -> Some (P.Protocol_error "ERROR\r\n")
  | "get" :: keys ->
    if keys <> [] && List.for_all valid keys then Some (P.Request (P.Get keys))
    else Some (client_error "bad command line format")
  | [ "set"; key; flags; exptime; bytes ] -> (
    match (valid key, dec_opt flags, dec_opt exptime, dec_opt bytes) with
    | true, Some flags, Some _, Some nbytes when nbytes <= P.max_value_bytes ->
      p.state <- Body { key; flags; nbytes };
      None
    | _ -> Some (client_error "bad command line format"))
  | [ "delete"; key ] ->
    if valid key then Some (P.Request (P.Delete key))
    else Some (client_error "bad command line format")
  | [ "incr"; key; delta ] -> (
    if not (valid key) then Some (client_error "bad command line format")
    else
      match dec_opt delta with
      | Some delta -> Some (P.Request (P.Incr { key; delta }))
      | None -> Some (client_error "invalid numeric delta argument"))
  | [ "stats" ] -> Some (P.Request P.Stats)
  | ("set" | "delete" | "incr" | "stats") :: _ -> Some (client_error "bad command line format")
  | _ -> Some (P.Protocol_error "ERROR\r\n")

let rec next p =
  match p.state with
  | Body { key; flags; nbytes } ->
    if String.length p.data < nbytes + 2 then None
    else begin
      let data = String.sub p.data 0 nbytes in
      let terminated = p.data.[nbytes] = '\r' && p.data.[nbytes + 1] = '\n' in
      p.state <- Line;
      if terminated then begin
        consume p (nbytes + 2);
        Some (P.Request (P.Set { key; flags; data }))
      end
      else begin
        consume p nbytes;
        Some (client_error "bad data chunk")
      end
    end
  | Line -> (
    match String.index_opt p.data '\n' with
    | None ->
      if String.length p.data > max_line_bytes then begin
        p.data <- "";
        Some (client_error "line too long")
      end
      else None
    | Some i -> (
      let line = String.sub p.data 0 (if i > 0 && p.data.[i - 1] = '\r' then i - 1 else i) in
      consume p (i + 1);
      match parse_line p line with None -> next p | item -> item))

let drain p =
  let rec go acc = match next p with None -> List.rev acc | Some it -> go (it :: acc) in
  go []
