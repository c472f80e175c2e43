type request =
  | Get of string list
  | Set of { key : string; flags : int; data : string }
  | Delete of string
  | Incr of { key : string; delta : int }
  | Stats

let max_key_bytes = 250
let max_value_bytes = 8192

(* Longest command line (bytes before its newline) we accept; generous
   next to max_key_bytes but bounded, so a newline-free flood cannot
   grow the buffer without limit. *)
let max_line_bytes = 4096

(* The key rule on [b.[lo, hi)]: non-empty, at most [max_key_bytes],
   no control, space or DEL byte. *)
let valid_key_range b lo hi =
  hi > lo && hi - lo <= max_key_bytes
  && (let ok = ref true in
      for k = lo to hi - 1 do
        let c = Bytes.get b k in
        if c <= ' ' || c = '\x7f' then ok := false
      done;
      !ok)

type state =
  | Line  (** expecting a command line *)
  | Body of { key : string; flags : int; nbytes : int }
      (** expecting [nbytes] of [set] payload plus CRLF *)
  | Skip  (** discarding the rest of an over-long line *)

(* One growable buffer per connection: received bytes live in
   [buf.[rd, wr)]; [buf.[rd, scan)] is known to hold no newline, so a
   line trickling in byte by byte is scanned once.  [tok] holds the
   (start, stop) offsets of the current command line's tokens. *)
type parser_ = {
  mutable buf : Bytes.t;
  mutable rd : int;
  mutable wr : int;
  mutable scan : int;
  mutable state : state;
  mutable tok : int array;
}

let parser_create () =
  { buf = Bytes.create 256; rd = 0; wr = 0; scan = 0; state = Line; tok = Array.make 16 0 }

let feed p chunk =
  let len = String.length chunk in
  if len > 0 then begin
    let cap = Bytes.length p.buf in
    if p.wr + len > cap then begin
      (* Compact to the front, growing when the live bytes would fill
         more than half the buffer, so compaction stays amortised. *)
      let live = p.wr - p.rd in
      let buf =
        if 2 * (live + len) <= cap then p.buf else Bytes.create (max (2 * cap) (live + len))
      in
      Bytes.blit p.buf p.rd buf 0 live;
      p.buf <- buf;
      p.scan <- p.scan - p.rd;
      p.rd <- 0;
      p.wr <- live
    end;
    Bytes.blit_string chunk 0 p.buf p.wr len;
    p.wr <- p.wr + len
  end

let buffered p = p.wr - p.rd

type item = Request of request | Protocol_error of string

let error = Protocol_error "ERROR\r\n"
let bad_format = Protocol_error "CLIENT_ERROR bad command line format\r\n"
let bad_delta = Protocol_error "CLIENT_ERROR invalid numeric delta argument\r\n"
let bad_chunk = Protocol_error "CLIENT_ERROR bad data chunk\r\n"
let too_long = Protocol_error "CLIENT_ERROR line too long\r\n"

let consume p n =
  p.rd <- p.rd + n;
  p.scan <- p.rd;
  if p.rd = p.wr then begin
    p.rd <- 0;
    p.wr <- 0;
    p.scan <- 0
  end

(* Split [buf.[lo, hi)] on spaces, dropping empty tokens (memcached
   tolerates repeated separators); returns the token count. *)
let tokenize p lo hi =
  let n = ref 0 and i = ref lo in
  while !i < hi do
    if Bytes.get p.buf !i = ' ' then incr i
    else begin
      let start = !i in
      while !i < hi && Bytes.get p.buf !i <> ' ' do
        incr i
      done;
      if (2 * !n) + 2 > Array.length p.tok then begin
        let tok = Array.make (2 * Array.length p.tok) 0 in
        Array.blit p.tok 0 tok 0 (2 * !n);
        p.tok <- tok
      end;
      p.tok.(2 * !n) <- start;
      p.tok.((2 * !n) + 1) <- !i;
      incr n
    end
  done;
  !n

let tok_is p t word =
  let start = p.tok.(2 * t) in
  p.tok.((2 * t) + 1) - start = String.length word
  && (let ok = ref true in
      String.iteri (fun k c -> if Bytes.get p.buf (start + k) <> c then ok := false) word;
      !ok)

let tok_string p t = Bytes.sub_string p.buf p.tok.(2 * t) (p.tok.((2 * t) + 1) - p.tok.(2 * t))

let tok_key p t = valid_key_range p.buf p.tok.(2 * t) p.tok.((2 * t) + 1)

(* Strict non-negative decimal of at most 15 digits, or -1 (a general
   int parser would admit 0x/-/_ forms the wire protocol rejects). *)
let tok_dec p t =
  let start = p.tok.(2 * t) and stop = p.tok.((2 * t) + 1) in
  if stop - start > 15 then -1
  else begin
    let v = ref 0 in
    for k = start to stop - 1 do
      let c = Bytes.get p.buf k in
      if !v >= 0 && c >= '0' && c <= '9' then v := (!v * 10) + Char.code c - 48 else v := -1
    done;
    !v
  end

(* The item for the command line [buf.[lo, hi)], or [None] when a
   valid [set] line armed body mode. *)
let parse_line p lo hi =
  let n = tokenize p lo hi in
  if n = 0 then Some error
  else if tok_is p 0 "get" then begin
    let ok = ref (n > 1) in
    for t = 1 to n - 1 do
      if not (tok_key p t) then ok := false
    done;
    if !ok then Some (Request (Get (List.init (n - 1) (fun t -> tok_string p (t + 1)))))
    else Some bad_format
  end
  else if tok_is p 0 "set" then begin
    let nbytes = if n = 5 then tok_dec p 4 else -1 in
    if n = 5 && tok_key p 1 && tok_dec p 2 >= 0 && tok_dec p 3 >= 0 && nbytes >= 0
       && nbytes <= max_value_bytes
    then begin
      p.state <- Body { key = tok_string p 1; flags = tok_dec p 2; nbytes };
      None
    end
    else Some bad_format
  end
  else if tok_is p 0 "delete" then
    if n = 2 && tok_key p 1 then Some (Request (Delete (tok_string p 1))) else Some bad_format
  else if tok_is p 0 "incr" then
    if n <> 3 || not (tok_key p 1) then Some bad_format
    else
      let delta = tok_dec p 2 in
      if delta >= 0 then Some (Request (Incr { key = tok_string p 1; delta })) else Some bad_delta
  else if tok_is p 0 "stats" then if n = 1 then Some (Request Stats) else Some bad_format
  else Some error

(* Offset of the first newline in [buf.[scan, wr)], or -1. *)
let find_newline p =
  let i = ref p.scan in
  while !i < p.wr && Bytes.get p.buf !i <> '\n' do
    incr i
  done;
  p.scan <- !i;
  if !i < p.wr then !i else -1

let rec next p =
  match p.state with
  | Body { key; flags; nbytes } ->
    if p.wr - p.rd < nbytes + 2 then None
    else begin
      p.state <- Line;
      let at = p.rd + nbytes in
      if Bytes.get p.buf at = '\r' && Bytes.get p.buf (at + 1) = '\n' then begin
        let data = Bytes.sub_string p.buf p.rd nbytes in
        consume p (nbytes + 2);
        Some (Request (Set { key; flags; data }))
      end
      else begin
        (* Payload not CRLF-terminated: the frame is torn.  Drop the
           declared payload and resynchronise at the next line. *)
        consume p nbytes;
        Some bad_chunk
      end
    end
  | Skip ->
    let nl = find_newline p in
    if nl < 0 then begin
      consume p (p.wr - p.rd);
      None
    end
    else begin
      consume p (nl + 1 - p.rd);
      p.state <- Line;
      next p
    end
  | Line ->
    let nl = find_newline p in
    if nl < 0 then
      if p.wr - p.rd > max_line_bytes then begin
        (* Over-long whatever follows: answer now, drop the rest of the
           line as it arrives. *)
        consume p (p.wr - p.rd);
        p.state <- Skip;
        Some too_long
      end
      else None
    else begin
      let lo = p.rd in
      (* [consume] only moves cursors: the line's bytes stay put until
         the next [feed]. *)
      consume p (nl + 1 - lo);
      if nl - lo > max_line_bytes then Some too_long
      else
        let hi = if nl > lo && Bytes.get p.buf (nl - 1) = '\r' then nl - 1 else nl in
        match parse_line p lo hi with None -> next p | item -> item
    end

let drain p =
  let rec go acc = match next p with None -> List.rev acc | Some it -> go (it :: acc) in
  go []

let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)

let decimal_length v = if v >= 0 then digits v else String.length (string_of_int v)

let rec add_decimal b v =
  if v < 0 then Buffer.add_string b (string_of_int v)
  else begin
    if v >= 10 then add_decimal b (v / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))
  end

(* The request writer: each [write_*] appends one request's wire bytes
   to [b], a buffer the caller reuses across requests. *)
let rec add_keys b = function
  | [] -> ()
  | key :: rest ->
    Buffer.add_char b ' ';
    Buffer.add_string b key;
    add_keys b rest

let write_get b keys =
  Buffer.add_string b "get ";
  (match keys with
  | [] -> ()
  | key :: rest ->
    Buffer.add_string b key;
    add_keys b rest);
  Buffer.add_string b "\r\n"

let write_set b ~key ~flags ~nbytes data =
  Buffer.add_string b "set ";
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  add_decimal b flags;
  Buffer.add_string b " 0 ";
  add_decimal b nbytes;
  Buffer.add_string b "\r\n";
  let start = Buffer.length b in
  data b;
  if Buffer.length b - start <> nbytes then
    invalid_arg "Protocol.write_set: payload length differs from nbytes";
  Buffer.add_string b "\r\n"

let write_delete b key =
  Buffer.add_string b "delete ";
  Buffer.add_string b key;
  Buffer.add_string b "\r\n"

let write_incr b ~key ~delta =
  Buffer.add_string b "incr ";
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  add_decimal b delta;
  Buffer.add_string b "\r\n"

let render_request r =
  let b = Buffer.create 64 in
  (match r with
  | Get keys -> write_get b keys
  | Set { key; flags; data } ->
    write_set b ~key ~flags ~nbytes:(String.length data) (fun b -> Buffer.add_string b data)
  | Delete key -> write_delete b key
  | Incr { key; delta } -> write_incr b ~key ~delta
  | Stats -> Buffer.add_string b "stats\r\n");
  Buffer.contents b

(* A sink with an empty buffer only advances [pos]: the counting pass. *)
type sink = { mutable out : Bytes.t; mutable pos : int }

let sink_create () = { out = Bytes.empty; pos = 0 }

let sink_alloc sk =
  sk.out <- Bytes.create sk.pos;
  sk.pos <- 0

let sink_contents sk = Bytes.unsafe_to_string sk.out

let put_raw sk s =
  let n = String.length s in
  if Bytes.length sk.out > 0 then Bytes.blit_string s 0 sk.out sk.pos n;
  sk.pos <- sk.pos + n

let put_int sk v =
  if v < 0 then put_raw sk (string_of_int v)
  else begin
    let n = digits v in
    if Bytes.length sk.out > 0 then begin
      let v = ref v in
      for k = sk.pos + n - 1 downto sk.pos do
        Bytes.set sk.out k (Char.chr (48 + (!v mod 10)));
        v := !v / 10
      done
    end;
    sk.pos <- sk.pos + n
  end

let put_value sk ~key ~flags data =
  put_raw sk "VALUE ";
  put_raw sk key;
  put_raw sk " ";
  put_int sk flags;
  put_raw sk " ";
  put_int sk (String.length data);
  put_raw sk "\r\n";
  put_raw sk data;
  put_raw sk "\r\n"

let put_end sk = put_raw sk "END\r\n"

let put_stats sk pairs =
  List.iter
    (fun (name, value) ->
      put_raw sk "STAT ";
      put_raw sk name;
      put_raw sk " ";
      put_raw sk value;
      put_raw sk "\r\n")
    pairs;
  put_end sk

let put_stored sk = put_raw sk "STORED\r\n"
let put_deleted sk = put_raw sk "DELETED\r\n"
let put_not_found sk = put_raw sk "NOT_FOUND\r\n"

let put_number sk n =
  put_int sk n;
  put_raw sk "\r\n"

let put_not_numeric sk = put_raw sk "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
