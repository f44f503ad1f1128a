(* Nanosecond pcap (magic 0xA1B23C4D), written big-endian so the file is
   self-describing; link type 1 = Ethernet. *)

type writer = {
  channel : out_channel;
  mutable count : int;
  mutable closed : bool;
}

let nanosecond_magic = 0xA1B23C4D

let u16 ch v =
  output_byte ch ((v lsr 8) land 0xFF);
  output_byte ch (v land 0xFF)

let u32 ch v =
  u16 ch (v lsr 16);
  u16 ch v

let create_file path =
  let channel = open_out_bin path in
  u32 channel nanosecond_magic;
  u16 channel 2 (* version major *);
  u16 channel 4 (* version minor *);
  u32 channel 0 (* thiszone *);
  u32 channel 0 (* sigfigs *);
  u32 channel 65535 (* snaplen *);
  u32 channel 1 (* LINKTYPE_ETHERNET *);
  { channel; count = 0; closed = false }

let write_frame w time frame =
  if w.closed then invalid_arg "Pcap.write_frame: writer closed";
  let ns = Sim.Time.to_int time in
  let data = Wire.encode_frame frame in
  u32 w.channel (ns / 1_000_000_000);
  u32 w.channel (ns mod 1_000_000_000);
  u32 w.channel (String.length data);
  u32 w.channel (String.length data);
  output_string w.channel data;
  w.count <- w.count + 1

let frames_written w = w.count

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out w.channel
  end

let tap_link w link =
  Link.set_tap link (fun time frame ->
      if not w.closed then write_frame w time frame)

(* --- reading ------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let r = Wire.Reader.of_string raw in
  let* magic = Wire.Reader.u32 r in
  if magic <> nanosecond_magic then Error (Wire.Unsupported "pcap magic")
  else
    let* _versions = Wire.Reader.u32 r in
    let* _thiszone = Wire.Reader.u32 r in
    let* _sigfigs = Wire.Reader.u32 r in
    let* _snaplen = Wire.Reader.u32 r in
    let* linktype = Wire.Reader.u32 r in
    if linktype <> 1 then Error (Wire.Unsupported "pcap link type")
    else begin
      let rec records acc =
        if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
        else
          let* sec = Wire.Reader.u32 r in
          let* nsec = Wire.Reader.u32 r in
          let* caplen = Wire.Reader.u32 r in
          let* _origlen = Wire.Reader.u32 r in
          let* data = Wire.Reader.take r caplen in
          let* frame = Wire.decode_frame data in
          let time = Sim.Time.of_int ((sec * 1_000_000_000) + nsec) in
          records ((time, frame) :: acc)
      in
      records []
    end
