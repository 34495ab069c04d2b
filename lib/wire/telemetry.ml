(* Server-side fleet telemetry: per-tenant and per-server counters with a
   service-time histogram per tenant.

   Locking discipline: the registry [t] is shared by every connection
   thread, and every update — a data request's record included — happens
   under its mutex, so a snapshot covers every reply already sent. The
   lock is held for a few field bumps and one histogram observe. *)

module H = Xmlac_obs.Histogram
module Json = Xmlac_obs.Json

let schema = "xwtp.telemetry.v1"

(* {2 Registry} *)

type tenant = {
  mutable tn_generation : int;
  mutable tn_sessions : int;
  mutable tn_requests : int;
  mutable tn_errors : int;
  mutable tn_cache_hits : int;
  mutable tn_cache_misses : int;
  mutable tn_reply_bytes : int;
  tn_service : H.t;
}

let make_tenant () =
  {
    tn_generation = 0;
    tn_sessions = 0;
    tn_requests = 0;
    tn_errors = 0;
    tn_cache_hits = 0;
    tn_cache_misses = 0;
    tn_reply_bytes = 0;
    (* histogram names must start with "wall" (Gate drift exemption) *)
    tn_service = H.make "wall_service";
  }

type t = {
  m : Mutex.t;
  mutable admitted : int;
  mutable active : int;
  mutable busy_rejections : int;
  mutable mux_opened : int;
  mutable mux_retired : int;
  (* dissemination plane (XWTP v1.3) *)
  mutable republishes : int;
  mutable syncs : int;
  mutable sync_uptodate : int;
  mutable delta_bytes : int;
  tenants : (string, tenant) Hashtbl.t;
}

let create () =
  {
    m = Mutex.create ();
    admitted = 0;
    active = 0;
    busy_rejections = 0;
    mux_opened = 0;
    mux_retired = 0;
    republishes = 0;
    syncs = 0;
    sync_uptodate = 0;
    delta_bytes = 0;
    tenants = Hashtbl.create 7;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let tenant_locked t id =
  match Hashtbl.find_opt t.tenants id with
  | Some tn -> tn
  | None ->
      let tn = make_tenant () in
      Hashtbl.replace t.tenants id tn;
      tn

let connection_admitted t =
  locked t (fun () ->
      t.admitted <- t.admitted + 1;
      t.active <- t.active + 1)

let connection_closed t = locked t (fun () -> t.active <- t.active - 1)
let busy_rejected t = locked t (fun () -> t.busy_rejections <- t.busy_rejections + 1)
let mux_opened t = locked t (fun () -> t.mux_opened <- t.mux_opened + 1)
let mux_retired t = locked t (fun () -> t.mux_retired <- t.mux_retired + 1)
let republished t = locked t (fun () -> t.republishes <- t.republishes + 1)

let sync_served t ~uptodate ~bytes =
  locked t (fun () ->
      t.syncs <- t.syncs + 1;
      if uptodate then t.sync_uptodate <- t.sync_uptodate + 1;
      t.delta_bytes <- t.delta_bytes + bytes)

let session t ~tenant ~generation =
  locked t (fun () ->
      let tn = tenant_locked t tenant in
      tn.tn_sessions <- tn.tn_sessions + 1;
      if generation > tn.tn_generation then tn.tn_generation <- generation)

let record t ~tenant ~ok ~reply_bytes ~cache_hits ~cache_misses ~service_s =
  locked t (fun () ->
      let tn = tenant_locked t tenant in
      tn.tn_requests <- tn.tn_requests + 1;
      if not ok then tn.tn_errors <- tn.tn_errors + 1;
      tn.tn_cache_hits <- tn.tn_cache_hits + cache_hits;
      tn.tn_cache_misses <- tn.tn_cache_misses + cache_misses;
      tn.tn_reply_bytes <- tn.tn_reply_bytes + reply_bytes;
      H.observe tn.tn_service service_s)

(* {2 Snapshot (plain data, JSON round-trippable)} *)

type service_summary = {
  sv_count : int;
  sv_mean_s : float;
  sv_p50_s : float;
  sv_p95_s : float;
  sv_p99_s : float;
  sv_max_s : float;
}

type tenant_view = {
  tv_id : string;
  tv_generation : int;
  tv_sessions : int;
  tv_requests : int;
  tv_errors : int;
  tv_cache_hits : int;
  tv_cache_misses : int;
  tv_reply_bytes : int;
  tv_service : service_summary;
}

type server_view = {
  sr_admitted : int;
  sr_active : int;
  sr_busy_rejections : int;
  sr_mux_opened : int;
  sr_mux_retired : int;
  sr_requests : int;
  sr_republishes : int;
  sr_syncs : int;
  sr_sync_uptodate : int;
  sr_delta_bytes : int;
  sr_cache_hits : int;
  sr_cache_misses : int;
  sr_containers : int;
}

type view = { server : server_view; tenants : tenant_view list }

let summary_of_hist h =
  {
    sv_count = H.count h;
    sv_mean_s = H.mean h;
    sv_p50_s = H.quantile h 0.5;
    sv_p95_s = H.quantile h 0.95;
    sv_p99_s = H.quantile h 0.99;
    sv_max_s = H.max_value h;
  }

let snapshot t ~containers =
  locked t (fun () ->
      let tenants =
        Hashtbl.fold
          (fun id tn acc ->
            {
              tv_id = id;
              tv_generation = tn.tn_generation;
              tv_sessions = tn.tn_sessions;
              tv_requests = tn.tn_requests;
              tv_errors = tn.tn_errors;
              tv_cache_hits = tn.tn_cache_hits;
              tv_cache_misses = tn.tn_cache_misses;
              tv_reply_bytes = tn.tn_reply_bytes;
              tv_service = summary_of_hist tn.tn_service;
            }
            :: acc)
          t.tenants []
        |> List.sort (fun a b -> compare a.tv_id b.tv_id)
      in
      let sum f = List.fold_left (fun acc tv -> acc + f tv) 0 tenants in
      {
        server =
          {
            sr_admitted = t.admitted;
            sr_active = t.active;
            sr_busy_rejections = t.busy_rejections;
            sr_mux_opened = t.mux_opened;
            sr_mux_retired = t.mux_retired;
            sr_requests = sum (fun tv -> tv.tv_requests);
            sr_republishes = t.republishes;
            sr_syncs = t.syncs;
            sr_sync_uptodate = t.sync_uptodate;
            sr_delta_bytes = t.delta_bytes;
            sr_cache_hits = sum (fun tv -> tv.tv_cache_hits);
            sr_cache_misses = sum (fun tv -> tv.tv_cache_misses);
            sr_containers = containers;
          };
        tenants;
      })

(* {2 JSON codec} *)

let service_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.sv_count);
      ("mean_s", Json.Float s.sv_mean_s);
      ("p50_s", Json.Float s.sv_p50_s);
      ("p95_s", Json.Float s.sv_p95_s);
      ("p99_s", Json.Float s.sv_p99_s);
      ("max_s", Json.Float s.sv_max_s);
    ]

let tenant_to_json tv =
  Json.Obj
    [
      ("id", Json.String tv.tv_id);
      ("generation", Json.Int tv.tv_generation);
      ("sessions", Json.Int tv.tv_sessions);
      ("requests", Json.Int tv.tv_requests);
      ("errors", Json.Int tv.tv_errors);
      ("cache_hits", Json.Int tv.tv_cache_hits);
      ("cache_misses", Json.Int tv.tv_cache_misses);
      ("reply_bytes", Json.Int tv.tv_reply_bytes);
      ("service", service_to_json tv.tv_service);
    ]

let to_json v =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "server",
        Json.Obj
          [
            ("admitted", Json.Int v.server.sr_admitted);
            ("active", Json.Int v.server.sr_active);
            ("busy_rejections", Json.Int v.server.sr_busy_rejections);
            ("mux_opened", Json.Int v.server.sr_mux_opened);
            ("mux_retired", Json.Int v.server.sr_mux_retired);
            ("requests", Json.Int v.server.sr_requests);
            ("republishes", Json.Int v.server.sr_republishes);
            ("syncs", Json.Int v.server.sr_syncs);
            ("sync_uptodate", Json.Int v.server.sr_sync_uptodate);
            ("delta_bytes", Json.Int v.server.sr_delta_bytes);
            ("cache_hits", Json.Int v.server.sr_cache_hits);
            ("cache_misses", Json.Int v.server.sr_cache_misses);
            ("containers", Json.Int v.server.sr_containers);
          ] );
      ("tenants", Json.List (List.map tenant_to_json v.tenants));
    ]

let to_string v = Json.to_string (to_json v)

(* Decoding faces untrusted input: the Stats reply travels over the same
   hostile wire as everything else, so every structural violation is a
   typed [Error _], never an exception. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "telemetry: missing or bad field %S" name)

let int_field name j = field name Json.to_int_opt j
let float_field name j = field name Json.to_float_opt j

let nonneg name v =
  if v < 0 then Error (Printf.sprintf "telemetry: negative %S" name) else Ok v

let int_field_nn name j =
  let* v = int_field name j in
  nonneg name v

(* fields added after v1 shipped: absent in old snapshots, so default 0
   instead of rejecting the whole document *)
let int_field_opt name j =
  match Json.member name j with
  | None -> Ok 0
  | Some _ -> int_field_nn name j

let service_of_json j =
  let* sv_count = int_field_nn "count" j in
  let* sv_mean_s = float_field "mean_s" j in
  let* sv_p50_s = float_field "p50_s" j in
  let* sv_p95_s = float_field "p95_s" j in
  let* sv_p99_s = float_field "p99_s" j in
  let* sv_max_s = float_field "max_s" j in
  Ok { sv_count; sv_mean_s; sv_p50_s; sv_p95_s; sv_p99_s; sv_max_s }

let tenant_of_json j =
  let* tv_id = field "id" Json.to_string_opt j in
  let* tv_generation = int_field_nn "generation" j in
  let* tv_sessions = int_field_nn "sessions" j in
  let* tv_requests = int_field_nn "requests" j in
  let* tv_errors = int_field_nn "errors" j in
  let* tv_cache_hits = int_field_nn "cache_hits" j in
  let* tv_cache_misses = int_field_nn "cache_misses" j in
  let* tv_reply_bytes = int_field_nn "reply_bytes" j in
  let* service_j =
    match Json.member "service" j with
    | Some s -> Ok s
    | None -> Error "telemetry: missing tenant service summary"
  in
  let* tv_service = service_of_json service_j in
  Ok
    {
      tv_id;
      tv_generation;
      tv_sessions;
      tv_requests;
      tv_errors;
      tv_cache_hits;
      tv_cache_misses;
      tv_reply_bytes;
      tv_service;
    }

let rec all_of = function
  | [] -> Ok []
  | j :: rest ->
      let* v = tenant_of_json j in
      let* vs = all_of rest in
      Ok (v :: vs)

let of_json j =
  let* s = field "schema" Json.to_string_opt j in
  if s <> schema then
    Error (Printf.sprintf "telemetry: unknown schema %S (want %S)" s schema)
  else
    let* server_j =
      match Json.member "server" j with
      | Some s -> Ok s
      | None -> Error "telemetry: missing server block"
    in
    let* sr_admitted = int_field_nn "admitted" server_j in
    let* sr_active = int_field_nn "active" server_j in
    let* sr_busy_rejections = int_field_nn "busy_rejections" server_j in
    let* sr_mux_opened = int_field_nn "mux_opened" server_j in
    let* sr_mux_retired = int_field_nn "mux_retired" server_j in
    let* sr_requests = int_field_nn "requests" server_j in
    let* sr_republishes = int_field_opt "republishes" server_j in
    let* sr_syncs = int_field_opt "syncs" server_j in
    let* sr_sync_uptodate = int_field_opt "sync_uptodate" server_j in
    let* sr_delta_bytes = int_field_opt "delta_bytes" server_j in
    let* sr_cache_hits = int_field_nn "cache_hits" server_j in
    let* sr_cache_misses = int_field_nn "cache_misses" server_j in
    let* sr_containers = int_field_nn "containers" server_j in
    let* tenants_j =
      match Option.bind (Json.member "tenants" j) Json.to_list_opt with
      | Some l -> Ok l
      | None -> Error "telemetry: missing tenants list"
    in
    let* tenants = all_of tenants_j in
    Ok
      {
        server =
          {
            sr_admitted;
            sr_active;
            sr_busy_rejections;
            sr_mux_opened;
            sr_mux_retired;
            sr_requests;
            sr_republishes;
            sr_syncs;
            sr_sync_uptodate;
            sr_delta_bytes;
            sr_cache_hits;
            sr_cache_misses;
            sr_containers;
          };
        tenants;
      }

let of_string s =
  match Json.parse s with
  | Error e -> Error ("telemetry: " ^ e)
  | Ok j -> of_json j
