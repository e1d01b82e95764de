(* The client side of bin/serve's line protocol (lib/server/protocol.mli),
   and the server child process itself. *)

module P = Server.Protocol

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd Unix.(ADDR_INET (inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let rpc c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c =
  (try ignore (rpc c (P.render_request P.Quit)) with _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let query_line text =
  P.render_request (P.Query { itemized = false; timeout_s = None; text })

(* A reply to a [Q] request: the serialized payload, or why the operation
   failed. Anything but [OK] counts as a failed operation. *)
let payload_of_reply line =
  match P.parse_response line with
  | Ok (P.Resp_ok (_, fields)) -> Ok (P.payload_of fields)
  | Ok (P.Resp_err { class_; code; message }) ->
    Error (Printf.sprintf "ERR %s %d %s" class_ code message)
  | Ok P.Resp_pong -> Error "unexpected PONG"
  | Ok P.Resp_bye -> Error "unexpected BYE"
  | Error m -> Error ("malformed reply: " ^ m)

(* What one closed-loop client saw. *)
type tally = {
  mutable lat_ms : float list;  (* operations that completed *)
  mutable fps : (string * string) list;  (* (query, output fingerprint) *)
  mutable failures : (string * string) list;  (* (query, reply) *)
}

let tally () = { lat_ms = []; fps = []; failures = [] }

(* Account one reply to a [Q] request for [query]: an [OK] reply is a
   completed operation with a latency and an output to check, any other
   reply a failed operation. *)
let record t ~query ~latency_s reply =
  match payload_of_reply reply with
  | Ok serialized ->
    t.lat_ms <- (1000. *. latency_s) :: t.lat_ms;
    t.fps <-
      (query, Check.fingerprint Check.Exact ~serialized ~items:(fun () -> []))
      :: t.fps
  | Error m -> t.failures <- (query, m) :: t.failures

(* STATS: [OK 1 k=v k=v ...] *)
let stats c =
  match payload_of_reply (rpc c (P.render_request P.Stats)) with
  | Ok payload -> Check.kv_pairs payload
  | Error m -> failwith ("STATS failed: " ^ m)

let stat_int kvs k =
  match List.assoc_opt k kvs with
  | Some v -> int_of_string v
  | None -> failwith ("STATS lacks " ^ k)

(* ------------------------------------------------------- server process *)

type server = { pid : int; port : int; out : in_channel }

let serve_exe = "_build/default/bin/serve.exe"

(* Spawn bin/serve on an ephemeral port and wait for its readiness line.
   Its stderr goes to [log]. *)
let spawn ~log args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let argv = Array.of_list (serve_exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process serve_exe argv Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let out = Unix.in_channel_of_descr out_r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf line "listening on %s@:%d" (fun _ p -> p) with
  | port -> { pid; port; out }
  | exception _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in out;
    failwith (Printf.sprintf "bin/serve did not start (see %s)" log)

(* SIGTERM is the graceful drain; wait until the process has exited. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in s.out
