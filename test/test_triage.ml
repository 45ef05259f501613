(* The type-qualifier triage (rung zero) and its pre-filter contract:
   - the inference finds type-level taint witnesses with no slicing;
   - untaint-reachable helpers are skippable, rule-relevant code is not;
   - the pre-filter changes no report byte, at any worker-pool size,
     over the whole benchmark suite (the metamorphic contract), and on
     GridSphere at a scale whose bounds keep its planted flows;
   - CHA resolution stays linear: a counted bound on dispatch probes;
   - an injected triage fault degrades to the unfiltered full analysis
     instead of failing the run;
   - the degradation ladder gets strictly cheaper rung to rung and
     always ends at the triage rung;
   - rung zero loses no planted true positive (it over-approximates);
   - the shared CSV writer quotes RFC-4180 edge cases. *)

open Core

let load srcs =
  Taj.load { Taj.name = "triage"; app_sources = srcs; descriptor = "" }

let servlet =
  {|class Cell { String v; }
    class Helper { int add(int a, int b) { return a + b; } }
    class Page extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        Cell c = new Cell();
        c.v = req.getParameter("x");
        resp.getWriter().println(c.v);
      }
    }|}

let clean_servlet =
  {|class Quiet extends HttpServlet {
      public void doGet(HttpServletRequest req, HttpServletResponse resp) {
        resp.getWriter().println("static text");
      }
    }|}

let triage_of srcs = Taj.triage ~rules:Rules.default_rules (load srcs)

(* ------------------------------------------------------------------ *)
(* inference                                                          *)
(* ------------------------------------------------------------------ *)

let test_finds_type_level_flow () =
  let v = triage_of [ servlet ] in
  let fs = Triage.findings v in
  Alcotest.(check bool) "some finding" true (fs <> []);
  Alcotest.(check bool) "xss found" true
    (List.exists (fun f -> f.Triage.f_rule = "xss") fs);
  List.iter
    (fun (f : Triage.finding) ->
       Alcotest.(check string) "in the servlet class" "Page" f.Triage.f_class;
       Alcotest.(check bool) "never an untainted finding" true
         (f.Triage.f_qual <> Triage.Untainted))
    fs;
  let s = Triage.stats v in
  Alcotest.(check bool) "methods swept" true (s.Triage.s_methods > 0);
  Alcotest.(check bool) "fixpoint took at least one pass" true
    (s.Triage.s_passes >= 1);
  Alcotest.(check int) "finding count matches stats"
    s.Triage.s_findings (List.length fs)

let test_clean_program_has_no_findings () =
  let v = triage_of [ clean_servlet ] in
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Triage.f_rule) (Triage.findings v))

let test_keep_skips_pure_helpers () =
  let loaded = load [ servlet ] in
  let v = Taj.triage ~rules:Rules.default_rules loaded in
  Alcotest.(check bool) "pure helper is skippable" false
    (Triage.keep_id v "Helper.add/3");
  (* the tainted servlet method must survive any filter *)
  Alcotest.(check bool) "tainted method kept" true
    (Triage.keep_id v "Page.doGet/3")

let test_rule_has_source () =
  let with_source = triage_of [ servlet ] in
  Alcotest.(check bool) "xss has a matched source" true
    (Triage.rule_has_source with_source "xss");
  let without = triage_of [ clean_servlet ] in
  Alcotest.(check bool) "no source, rule skippable" false
    (Triage.rule_has_source without "xss")

(* ------------------------------------------------------------------ *)
(* pre-filter metamorphic contract                                    *)
(* ------------------------------------------------------------------ *)

let rendered_report ?(scale = 0.02) ~jobs ~filter loaded =
  let config =
    { (Config.preset ~scale Config.Hybrid_optimized) with
      Config.triage_filter = filter }
  in
  match (Taj.run ~jobs loaded config).Taj.result with
  | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
  | Taj.Completed c -> Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report

(* The whole benchmark suite, filter on vs off, sequential and at
   jobs=4: the filter may only skip work, never change a report byte. *)
let test_filter_byte_identity_all_apps () =
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let loaded =
         Taj.load
           (Workloads.Codegen.to_input
              (Workloads.Apps.generate ~scale:0.02 a))
       in
       let baseline = rendered_report ~jobs:1 ~filter:false loaded in
       List.iter
         (fun jobs ->
            Alcotest.(check string)
              (Printf.sprintf "%s: filtered report identical at jobs=%d"
                 a.Workloads.Apps.name jobs)
              baseline
              (rendered_report ~jobs ~filter:true loaded))
         [ 1; 4 ])
    Workloads.Apps.table2

(* At 0.02 the call-graph bound cuts most of GridSphere's planted flows,
   so the contract is also checked at 0.2 with bounds of that scale,
   where the full analysis reports 101 issues. *)
let gridsphere_02 =
  lazy
    (Taj.load
       (Workloads.Codegen.to_input
          (Workloads.Apps.generate ~scale:0.2
             (Option.get (Workloads.Apps.find "GridSphere")))))

let test_filter_byte_identity_gridsphere_02 () =
  let loaded = Lazy.force gridsphere_02 in
  let off = rendered_report ~scale:0.2 ~jobs:1 ~filter:false loaded in
  Alcotest.(check bool) "GridSphere@0.2 reports its 101 issues" true
    (String.starts_with ~prefix:"101 issue(s)" off);
  Alcotest.(check string) "GridSphere@0.2: filtered report identical" off
    (rendered_report ~scale:0.2 ~jobs:1 ~filter:true loaded)

(* CHA resolution is memoized per distinct call target, and the subtype
   list it dispatches over comes from the class table's index: the
   number of [Classtable.dispatch] probes tracks distinct virtual targets
   times their receivers' subtypes, not call sites times classes. The
   bound is a deterministic work counter, not wall time. *)
let test_dispatch_probes_bounded () =
  let loaded = Lazy.force gridsphere_02 in
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
  @@ fun () ->
  ignore (Taj.triage ~rules:Rules.default_rules loaded);
  let counter name =
    match Obs.Telemetry.find_value name with
    | Some (Obs.Telemetry.V_counter n) -> n
    | _ -> Alcotest.failf "counter %s not registered" name
  in
  let probes = counter "triage.dispatch_probes" in
  let resolutions = counter "triage.resolutions" in
  Alcotest.(check bool)
    (Printf.sprintf "some targets resolved (%d)" resolutions)
    true (resolutions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "dispatch probes %d <= 20000" probes)
    true (probes <= 20_000)

(* ------------------------------------------------------------------ *)
(* fault containment                                                  *)
(* ------------------------------------------------------------------ *)

let run_with_fault site =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset @@ fun () ->
  Fault.arm site ~after:1;
  let loaded = load [ servlet ] in
  (* the pre-filter is opt-in: these cases fault it, so they turn it on *)
  let config =
    { (Config.preset ~scale:0.02 Config.Hybrid_optimized) with
      Config.triage_filter = true }
  in
  let report =
    match (Taj.run loaded config).Taj.result with
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
    | Taj.Completed c ->
      Alcotest.(check bool) (site ^ ": fault fired") true
        (Fault.fired site > 0);
      Alcotest.(check bool) (site ^ ": triage fault recorded") true
        (List.exists
           (function
             | Diagnostics.Phase_fault { phase = Diagnostics.Triage; _ } ->
               true
             | _ -> false)
           c.Taj.diagnostics);
      Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report
  in
  Fault.reset ();
  let clean =
    match (Taj.run loaded config).Taj.result with
    | Taj.Did_not_complete r -> Alcotest.failf "did not complete: %s" r
    | Taj.Completed c -> Fmt.str "%a" (Report.pp c.Taj.builder) c.Taj.report
  in
  (* the faulted run keeps every flow of the clean run and appends the
     recorded triage fault as a partiality note — so the clean rendering
     must be a strict prefix of the faulted one *)
  Alcotest.(check bool) (site ^ ": all flows survive the fault") true
    (String.length report > String.length clean
     && String.sub report 0 (String.length clean) = clean)

let test_fault_in_infer_degrades_to_unfiltered () =
  run_with_fault Fault.site_triage_infer

let test_fault_in_filter_degrades_to_unfiltered () =
  run_with_fault Fault.site_triage_filter

(* ------------------------------------------------------------------ *)
(* ladder shape                                                       *)
(* ------------------------------------------------------------------ *)

(* Cost vector of a rung: every budget normalized to "max_int =
   unbounded". Cheaper-or-equal in every dimension and strictly cheaper
   in at least one is what "the ladder only descends" means. *)
let cost (_, (cfg : Config.t)) =
  if cfg.Config.algorithm = Config.Type_triage then [ 0; 0; 0; 0 ]
  else
    [ Option.value ~default:max_int cfg.Config.max_cg_nodes;
      Option.value ~default:max_int cfg.Config.max_heap_transitions;
      Option.value ~default:max_int cfg.Config.max_flow_length;
      (if cfg.Config.nested_taint_depth < 0 then max_int
       else cfg.Config.nested_taint_depth) ]

let strictly_cheaper a b =
  List.for_all2 (fun x y -> y <= x) (cost a) (cost b)
  && List.exists2 (fun x y -> y < x) (cost a) (cost b)

let prop_ladder_descends_to_triage =
  QCheck.Test.make ~name:"ladder rungs strictly cheaper, triage last"
    ~count:100
    QCheck.(
      pair (int_range 0 4) (float_range 0.02 1.0))
    (fun (alg_ix, scale) ->
       let algorithm = List.nth Config.all_algorithms alg_ix in
       let ladder =
         Config.degradation_ladder ~scale (Config.preset ~scale algorithm)
       in
       let rec descends = function
         | a :: (b :: _ as rest) -> strictly_cheaper a b && descends rest
         | [ _ ] | [] -> true
       in
       ladder <> []
       && (snd (List.nth ladder (List.length ladder - 1))).Config.algorithm
          = Config.Type_triage
       && List.length
            (List.filter
               (fun (_, c) -> c.Config.algorithm = Config.Type_triage)
               ladder)
          = 1
       && descends ladder)

let test_triage_ladder_is_empty () =
  Alcotest.(check int) "nothing below rung zero" 0
    (List.length (Config.degradation_ladder (Config.preset Config.Type_triage)))

(* ------------------------------------------------------------------ *)
(* rung-zero recall                                                   *)
(* ------------------------------------------------------------------ *)

let test_rung_zero_loses_no_planted_tp () =
  List.iter
    (fun name ->
       let app = Option.get (Workloads.Apps.find name) in
       let rows = Workloads.Score.run_rungs ~scale:0.02 app in
       match List.rev rows with
       | [] -> Alcotest.fail "empty ladder"
       | last :: _ ->
         Alcotest.(check string) (name ^ ": last rung is triage") "triage"
           last.Workloads.Score.rr_rung;
         (match last.Workloads.Score.rr_classification with
          | None -> Alcotest.fail (name ^ ": rung zero did not complete")
          | Some c ->
            Alcotest.(check int) (name ^ ": rung zero loses no planted TP")
              0 c.Workloads.Score.false_negatives))
    [ "BlueBlog"; "Friki"; "Webgoat" ]

(* ------------------------------------------------------------------ *)
(* CSV quoting                                                        *)
(* ------------------------------------------------------------------ *)

let test_csv_quoting () =
  Alcotest.(check string) "clean field passes through" "plain"
    (Obs.Csv.field "plain");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Obs.Csv.field "a,b");
  Alcotest.(check string) "embedded quote doubled" "\"a\"\"b\""
    (Obs.Csv.field "a\"b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Obs.Csv.field "a\nb");
  Alcotest.(check string) "carriage return quoted" "\"a\rb\""
    (Obs.Csv.field "a\rb");
  Alcotest.(check string) "row quotes per field and terminates"
    "x,\"a,\"\"b\"\"\n\",1\n"
    (Obs.Csv.row [ "x"; "a,\"b\"\n"; "1" ])

let suite =
  [ Alcotest.test_case "type-level flow found" `Quick
      test_finds_type_level_flow;
    Alcotest.test_case "clean program silent" `Quick
      test_clean_program_has_no_findings;
    Alcotest.test_case "pure helpers skippable" `Quick
      test_keep_skips_pure_helpers;
    Alcotest.test_case "rule-has-source" `Quick test_rule_has_source;
    Alcotest.test_case "filter byte-identity over all apps" `Quick
      test_filter_byte_identity_all_apps;
    Alcotest.test_case "filter byte-identity on GridSphere@0.2" `Quick
      test_filter_byte_identity_gridsphere_02;
    Alcotest.test_case "dispatch probes bounded on GridSphere@0.2" `Quick
      test_dispatch_probes_bounded;
    Alcotest.test_case "infer fault degrades to unfiltered" `Quick
      test_fault_in_infer_degrades_to_unfiltered;
    Alcotest.test_case "filter fault degrades to unfiltered" `Quick
      test_fault_in_filter_degrades_to_unfiltered;
    QCheck_alcotest.to_alcotest prop_ladder_descends_to_triage;
    Alcotest.test_case "nothing below rung zero" `Quick
      test_triage_ladder_is_empty;
    Alcotest.test_case "rung zero loses no planted TP" `Quick
      test_rung_zero_loses_no_planted_tp;
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting ]
