(* Tests for the hardware abstraction: Table I consistency, the
   CACTI-like and Orion-like model calibration, mesh NoC geometry, and
   timing derivations. *)

let hw = Pimhw.Config.puma_like

let close ?(eps = 1e-6) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %f, got %f" msg expected actual

(* --- config --------------------------------------------------------------- *)

let test_table1_core_power () =
  (* Table I reports 1270.56 mW; the component rows sum to 1270.50
     (rounding in the paper's table) *)
  close ~eps:0.01 "core power" 1270.50 (Pimhw.Config.core_power_mw hw);
  close ~eps:0.001 "core area" 1.013 (Pimhw.Config.core_area_mm2 hw)

let test_table1_chip () =
  (* chip power ~56.79 W and area ~62.92 mm^2 per Table I *)
  let p = Pimhw.Config.chip_power_mw hw /. 1000.0 in
  let a = Pimhw.Config.chip_area_mm2 hw in
  if p < 55.0 || p > 59.0 then Alcotest.failf "chip power %f W off" p;
  if a < 60.0 || a > 67.0 then Alcotest.failf "chip area %f mm2 off" a

let test_validate_rejects () =
  (match Pimhw.Config.validate { hw with core_count = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "core_count 0 accepted");
  (match Pimhw.Config.validate { hw with static_fraction = 1.5 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "static_fraction 1.5 accepted");
  match Pimhw.Config.validate { hw with t_mvm_ns = -1.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative T_MVM accepted"

let test_derived_counts () =
  Alcotest.(check int) "total crossbars" (36 * 64)
    (Pimhw.Config.total_crossbars hw);
  Alcotest.(check int) "xbar capacity" (128 * 128) (Pimhw.Config.xbar_capacity hw)

(* --- cacti ---------------------------------------------------------------- *)

let test_cacti_calibration () =
  let local = Pimhw.Cacti_model.evaluate ~capacity_bytes:(64 * 1024) in
  close ~eps:1e-9 "local area anchor" 0.085 local.Pimhw.Cacti_model.area_mm2;
  close ~eps:1e-9 "local leakage anchor" (18.0 *. 0.30)
    local.Pimhw.Cacti_model.leakage_power_mw

let test_cacti_scaling () =
  let small = Pimhw.Cacti_model.evaluate ~capacity_bytes:(16 * 1024) in
  let large = Pimhw.Cacti_model.evaluate ~capacity_bytes:(256 * 1024) in
  (* energy scales with sqrt capacity: 4x capacity -> 2x energy *)
  close ~eps:1e-9 "sqrt energy scaling"
    (small.Pimhw.Cacti_model.read_energy_pj_per_byte *. 4.0)
    large.Pimhw.Cacti_model.read_energy_pj_per_byte;
  (* leakage and area scale linearly *)
  close ~eps:1e-9 "linear leakage scaling"
    (small.Pimhw.Cacti_model.leakage_power_mw *. 16.0)
    large.Pimhw.Cacti_model.leakage_power_mw;
  if
    large.Pimhw.Cacti_model.write_energy_pj_per_byte
    <= large.Pimhw.Cacti_model.read_energy_pj_per_byte
  then Alcotest.fail "writes should cost more than reads"

let test_cacti_rejects () =
  match Pimhw.Cacti_model.evaluate ~capacity_bytes:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted"

(* --- orion ---------------------------------------------------------------- *)

let test_orion_calibration () =
  let r = Pimhw.Orion_model.evaluate () in
  close ~eps:1e-9 "flit energy anchor" 10.0 r.Pimhw.Orion_model.energy_per_flit_pj;
  close ~eps:1e-9 "router area anchor" 0.14 r.Pimhw.Orion_model.area_mm2

let test_orion_scaling () =
  let narrow =
    Pimhw.Orion_model.evaluate
      ~params:{ Pimhw.Orion_model.default_params with flit_bits = 32 }
      ()
  in
  let wide =
    Pimhw.Orion_model.evaluate
      ~params:{ Pimhw.Orion_model.default_params with flit_bits = 128 }
      ()
  in
  if
    narrow.Pimhw.Orion_model.energy_per_flit_pj
    >= wide.Pimhw.Orion_model.energy_per_flit_pj
  then Alcotest.fail "wider flits should cost more energy"

(* qcheck monotonicity: every Cacti output is non-decreasing in
   capacity — the synthesiser's pre-filters and config scaling lean on
   this (a bigger scratchpad can never get cheaper). *)
let cacti_monotone =
  QCheck.Test.make ~name:"cacti monotone in capacity" ~count:300
    QCheck.(pair (int_range 1 (1 lsl 22)) (int_range 1 (1 lsl 22)))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      let r_lo = Pimhw.Cacti_model.evaluate ~capacity_bytes:lo in
      let r_hi = Pimhw.Cacti_model.evaluate ~capacity_bytes:hi in
      r_lo.Pimhw.Cacti_model.read_energy_pj_per_byte
      <= r_hi.Pimhw.Cacti_model.read_energy_pj_per_byte
      && r_lo.Pimhw.Cacti_model.write_energy_pj_per_byte
         <= r_hi.Pimhw.Cacti_model.write_energy_pj_per_byte
      && r_lo.Pimhw.Cacti_model.leakage_power_mw
         <= r_hi.Pimhw.Cacti_model.leakage_power_mw
      && r_lo.Pimhw.Cacti_model.area_mm2 <= r_hi.Pimhw.Cacti_model.area_mm2
      && r_lo.Pimhw.Cacti_model.access_latency_ns
         <= r_hi.Pimhw.Cacti_model.access_latency_ns)

(* Orion: energy, leakage and area are non-decreasing in port count and
   flit width (and leakage/area in buffer depth). *)
let orion_params =
  QCheck.make
    ~print:(fun (p : Pimhw.Orion_model.params) ->
      Printf.sprintf "ports=%d vc=%d buf=%d flit=%d" p.Pimhw.Orion_model.ports
        p.Pimhw.Orion_model.virtual_channels p.Pimhw.Orion_model.buffer_depth_flits
        p.Pimhw.Orion_model.flit_bits)
    QCheck.Gen.(
      map
        (fun (ports, vc, buf, flit) ->
          {
            Pimhw.Orion_model.ports;
            virtual_channels = vc;
            buffer_depth_flits = buf;
            flit_bits = flit;
          })
        (quad (int_range 2 16) (int_range 1 8) (int_range 1 16)
           (int_range 8 512)))

let orion_monotone =
  QCheck.Test.make ~name:"orion monotone in ports/flit/buffers" ~count:300
    QCheck.(pair orion_params (triple (int_range 0 8) (int_range 0 256) (int_range 0 8)))
    (fun (p, (dports, dflit, dbuf)) ->
      let bigger =
        {
          p with
          Pimhw.Orion_model.ports = p.Pimhw.Orion_model.ports + dports;
          flit_bits = p.Pimhw.Orion_model.flit_bits + dflit;
          buffer_depth_flits = p.Pimhw.Orion_model.buffer_depth_flits + dbuf;
        }
      in
      let r = Pimhw.Orion_model.evaluate ~params:p () in
      let r' = Pimhw.Orion_model.evaluate ~params:bigger () in
      r.Pimhw.Orion_model.energy_per_flit_pj
      <= r'.Pimhw.Orion_model.energy_per_flit_pj
      && r.Pimhw.Orion_model.leakage_power_mw
         <= r'.Pimhw.Orion_model.leakage_power_mw
      && r.Pimhw.Orion_model.area_mm2 <= r'.Pimhw.Orion_model.area_mm2)

(* --- design space --------------------------------------------------------- *)

(* Config.validate must accept every point the synth enumerator can
   emit: axes values are arbitrary positives, not just the defaults. *)
let axis_gen = QCheck.Gen.(list_size (int_range 1 4) (int_range 1 512))

let design_axes_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d, e) ->
        let dedup l = List.sort_uniq compare l in
        {
          Pimhw.Design_space.xbar_size_axis = dedup a;
          xbars_per_core_axis = dedup b;
          core_count_axis = dedup c;
          local_memory_kb_axis = dedup d;
          vfus_per_core_axis = dedup e;
        })
      (tup5 axis_gen axis_gen axis_gen axis_gen axis_gen))

let enumerator_points_validate =
  QCheck.Test.make ~name:"Config.validate accepts every enumerated point"
    ~count:60
    (QCheck.make design_axes_gen)
    (fun axes ->
      let points = Pimhw.Design_space.enumerate axes in
      List.length points = Pimhw.Design_space.cardinality axes
      && List.for_all
           (fun p ->
             Pimhw.Config.validate (Pimhw.Design_space.to_config p);
             true)
           points)

(* --- noc ------------------------------------------------------------------ *)

let test_mesh_geometry () =
  let noc = Pimhw.Noc.create ~core_count:36 in
  Alcotest.(check int) "6x6 cols" 6 (Pimhw.Noc.cols noc);
  Alcotest.(check int) "6x6 rows" 6 (Pimhw.Noc.rows noc);
  Alcotest.(check (pair int int)) "coords of 7" (1, 1) (Pimhw.Noc.coords noc 7);
  Alcotest.(check int) "corner hops" 10 (Pimhw.Noc.hops noc ~src:0 ~dst:35);
  Alcotest.(check int) "same core" 0 (Pimhw.Noc.hops noc ~src:9 ~dst:9)

let test_mesh_routes () =
  let noc = Pimhw.Noc.create ~core_count:16 in
  let route = Pimhw.Noc.route noc ~src:0 ~dst:15 in
  Alcotest.(check int) "route length = hops"
    (Pimhw.Noc.hops noc ~src:0 ~dst:15)
    (List.length route);
  (* XY routing: x-links first *)
  (match route with
  | { Pimhw.Noc.from_core = 0; to_core = 1 } :: _ -> ()
  | _ -> Alcotest.fail "XY route should start along x");
  Alcotest.(check (list (pair int int))) "route is connected" []
    (List.filter_map
       (fun (a, b) -> if a <> b then Some (a, b) else None)
       (let rec pairs = function
          | { Pimhw.Noc.to_core = a; _ } :: ({ Pimhw.Noc.from_core = b; _ } :: _ as rest)
            ->
              (a, b) :: pairs rest
          | _ -> []
        in
        pairs route))

let test_non_square_mesh () =
  let noc = Pimhw.Noc.create ~core_count:7 in
  Alcotest.(check int) "7 cores fit" 7 (Pimhw.Noc.core_count noc);
  (* every core must have valid coordinates *)
  for c = 0 to 6 do
    let x, y = Pimhw.Noc.coords noc c in
    Alcotest.(check (option int)) "coords invert" (Some c)
      (Pimhw.Noc.core_at noc ~x ~y)
  done

let test_ragged_mesh_routes () =
  (* core_count = 5 is a 3-wide mesh whose bottom row holds only cores 3
     and 4; position (2,1) is a hole.  Dimension-ordered XY routing from
     core 3 to core 2 would turn at that hole, so the router must fall
     back to the YX corner.  Every link endpoint has to be a real core. *)
  let noc = Pimhw.Noc.create ~core_count:5 in
  for src = 0 to 4 do
    for dst = 0 to 4 do
      let route = Pimhw.Noc.route noc ~src ~dst in
      Alcotest.(check int)
        (Fmt.str "route %d->%d length" src dst)
        (Pimhw.Noc.hops noc ~src ~dst)
        (List.length route);
      List.iter
        (fun { Pimhw.Noc.from_core; to_core } ->
          if from_core < 0 || from_core >= 5 || to_core < 0 || to_core >= 5
          then
            Alcotest.failf "route %d->%d crosses phantom core (%d->%d)" src
              dst from_core to_core)
        route
    done
  done

let test_global_memory_route () =
  (* hops_to_global_memory must agree with the explicit route to the
     controller port beyond the top-left core *)
  List.iter
    (fun core_count ->
      let noc = Pimhw.Noc.create ~core_count in
      for core = 0 to core_count - 1 do
        let route = Pimhw.Noc.route_to_global_memory noc ~core in
        Alcotest.(check int)
          (Fmt.str "n=%d core %d global hops" core_count core)
          (Pimhw.Noc.hops_to_global_memory noc ~core)
          (List.length route);
        match List.rev route with
        | { Pimhw.Noc.from_core = 0; to_core } :: _
          when to_core = Pimhw.Noc.global_memory_port ->
            ()
        | _ -> Alcotest.failf "n=%d core %d: last link is not 0->port"
                 core_count core
      done)
    [ 1; 5; 7; 16; 36 ]

let mesh_hops_symmetric =
  QCheck.Test.make ~name:"mesh hops symmetric and triangle" ~count:300
    QCheck.(triple (int_range 1 49) (int_range 0 48) (int_range 0 48))
    (fun (n, a, b) ->
      let noc = Pimhw.Noc.create ~core_count:n in
      let a = a mod n and b = b mod n in
      let h = Pimhw.Noc.hops noc ~src:a ~dst:b in
      let route = Pimhw.Noc.route noc ~src:a ~dst:b in
      h = Pimhw.Noc.hops noc ~src:b ~dst:a
      && h >= 0
      && List.length route = h
      && List.for_all
           (fun { Pimhw.Noc.from_core; to_core } ->
             from_core >= 0 && from_core < n && to_core >= 0 && to_core < n)
           route)

(* --- timing --------------------------------------------------------------- *)

let test_timing_interval () =
  let t = Pimhw.Timing.create ~parallelism:20 hw in
  close "t_interval" (hw.Pimhw.Config.t_mvm_ns /. 20.0)
    t.Pimhw.Timing.t_interval_ns;
  (* f(n): below saturation one cycle is T_MVM, above it n*T_interval *)
  close "f(1)" hw.Pimhw.Config.t_mvm_ns
    (Pimhw.Timing.operation_cycle_ns t ~ags_in_core:1);
  close "f(20)" hw.Pimhw.Config.t_mvm_ns
    (Pimhw.Timing.operation_cycle_ns t ~ags_in_core:20);
  close "f(40)" (2.0 *. hw.Pimhw.Config.t_mvm_ns)
    (Pimhw.Timing.operation_cycle_ns t ~ags_in_core:40)

let test_timing_vec_noc () =
  let t = Pimhw.Timing.create ~parallelism:4 hw in
  close "vec 1 elem" hw.Pimhw.Config.t_core_cycle_ns
    (Pimhw.Timing.vec_ns t ~elements:1);
  close "vec full width" hw.Pimhw.Config.t_core_cycle_ns
    (Pimhw.Timing.vec_ns t ~elements:(12 * 4));
  close "vec 2 cycles" (2.0 *. hw.Pimhw.Config.t_core_cycle_ns)
    (Pimhw.Timing.vec_ns t ~elements:((12 * 4) + 1));
  let one_flit = Pimhw.Timing.noc_ns t ~hops:2 ~bytes:4 in
  let many_flits = Pimhw.Timing.noc_ns t ~hops:2 ~bytes:800 in
  if many_flits <= one_flit then Alcotest.fail "serialisation should add time"

(* One flit count: whole flits, at least one even for an empty message,
   and a message's latency and energy follow it exactly. *)
let test_flits () =
  let t = Pimhw.Timing.create ~parallelism:4 hw in
  let em = Pimhw.Energy_model.create hw in
  let f = hw.Pimhw.Config.flit_bytes in
  List.iter
    (fun (bytes, flits) ->
      let label what = Fmt.str "%s at %d bytes" what bytes in
      Alcotest.(check int) (label "flits") flits (Pimhw.Config.flits hw ~bytes);
      Alcotest.(check (float 0.))
        (label "noc_ns")
        ((3. *. hw.Pimhw.Config.t_hop_ns)
        +. (float_of_int flits *. hw.Pimhw.Config.t_core_cycle_ns))
        (Pimhw.Timing.noc_ns t ~hops:3 ~bytes);
      Alcotest.(check (float 0.))
        (label "message energy")
        (float_of_int (flits * 3)
        *. em.Pimhw.Energy_model.router_energy_pj_per_flit_hop)
        (Pimhw.Energy_model.message_energy_pj em ~hops:3 ~bytes))
    [ (0, 1); (1, 1); (f, 1); (f + 1, 2) ]

let test_energy_model () =
  let em = Pimhw.Energy_model.create hw in
  (* one crossbar MVM: (1221.7 mW * 0.7 / 64) * 100 ns ~ 1336 pJ *)
  let expected = 1221.7 *. 0.7 /. 64.0 *. 100.0 in
  close ~eps:1.0 "mvm energy" expected em.Pimhw.Energy_model.mvm_energy_pj;
  if em.Pimhw.Energy_model.global_read_pj_per_byte
     <= em.Pimhw.Energy_model.local_read_pj_per_byte
  then Alcotest.fail "global accesses should cost more than local";
  let small = Pimhw.Energy_model.message_energy_pj em ~hops:1 ~bytes:8 in
  let big = Pimhw.Energy_model.message_energy_pj em ~hops:4 ~bytes:640 in
  if big <= small then Alcotest.fail "message energy should scale"

let () =
  Alcotest.run "pimhw"
    [
      ( "config",
        [
          Alcotest.test_case "core power/area" `Quick test_table1_core_power;
          Alcotest.test_case "chip totals" `Quick test_table1_chip;
          Alcotest.test_case "validation" `Quick test_validate_rejects;
          Alcotest.test_case "derived counts" `Quick test_derived_counts;
        ] );
      ( "cacti",
        [
          Alcotest.test_case "calibration" `Quick test_cacti_calibration;
          Alcotest.test_case "scaling laws" `Quick test_cacti_scaling;
          Alcotest.test_case "rejects" `Quick test_cacti_rejects;
          QCheck_alcotest.to_alcotest cacti_monotone;
        ] );
      ( "orion",
        [
          Alcotest.test_case "calibration" `Quick test_orion_calibration;
          Alcotest.test_case "scaling" `Quick test_orion_scaling;
          QCheck_alcotest.to_alcotest orion_monotone;
        ] );
      ( "design_space",
        [ QCheck_alcotest.to_alcotest enumerator_points_validate ] );
      ( "noc",
        [
          Alcotest.test_case "mesh geometry" `Quick test_mesh_geometry;
          Alcotest.test_case "routes" `Quick test_mesh_routes;
          Alcotest.test_case "non-square" `Quick test_non_square_mesh;
          Alcotest.test_case "ragged routes" `Quick test_ragged_mesh_routes;
          Alcotest.test_case "global memory route" `Quick
            test_global_memory_route;
          QCheck_alcotest.to_alcotest mesh_hops_symmetric;
        ] );
      ( "timing",
        [
          Alcotest.test_case "interval and f(n)" `Quick test_timing_interval;
          Alcotest.test_case "vec and noc" `Quick test_timing_vec_noc;
          Alcotest.test_case "energy model" `Quick test_energy_model;
          Alcotest.test_case "flit rounding" `Quick test_flits;
        ] );
    ]
