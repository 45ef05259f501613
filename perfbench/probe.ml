(* The benchmark's in-process probe.

   It never changes how the program analyses anything: it calls the
   library's public functions in the order [Taj.load] and [Taj.run] call
   them, and records a span around each call into a layer. [run.py] uses
   it for two things:

     probe trace JOB.json   traced reconstruction of the CLI's [analyze]
                            over batch inputs or a seeded edit sequence;
                            prints one JSON sample per analysis
     probe units SEED N     N one-servlet MJava units drawn from the
                            pattern catalog, each with the issue count an
                            in-process supervised run reports (NDJSON)

   Spans live in memory only; each sample reports the self time of every
   span name (its duration minus the time covered by its child spans). *)

open Core
module Json = Serve.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_stop : float;
  sp_parent : int;
}

let spans : (int * span) list ref = ref []
let next_id = ref 0
let current = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let s =
    { sp_name = name; sp_start = now (); sp_stop = nan; sp_parent = !current }
  in
  spans := (id, s) :: !spans;
  let parent = !current in
  current := id;
  Fun.protect
    ~finally:(fun () ->
      s.sp_stop <- now ();
      current := parent)
    f

(* self time per span name over the spans recorded since the last reset *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (_, s) ->
       let d = s.sp_stop -. s.sp_start in
       let prev =
         Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)
       in
       Hashtbl.replace child s.sp_parent (prev +. d))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (id, s) ->
       let d = s.sp_stop -. s.sp_start in
       let c = Option.value ~default:0.0 (Hashtbl.find_opt child id) in
       let prev = Option.value ~default:0.0 (Hashtbl.find_opt self s.sp_name) in
       Hashtbl.replace self s.sp_name (prev +. d -. c))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare

let reset_spans () =
  spans := [];
  current := -1

(* ------------------------------------------------------------------ *)
(* Reconstruction of Taj.load / Taj.run                               *)
(* ------------------------------------------------------------------ *)

(* [Taj.load]'s frontend, one public call at a time. *)
let load (cache : Cache_iface.t) (input : Taj.input) ~parsed_bytes :
  Taj.loaded =
  let t0 = now () in
  let jdk_units = span "models.jdk" Models.Jdklib.units in
  let parse src =
    parsed_bytes := !parsed_bytes + String.length src;
    span "jir.parse" (fun () -> Jir.Parser.parse src)
  in
  let app_units =
    List.map
      (fun src -> cache.Cache_iface.unit_ast ~src ~parse:(fun () -> parse src))
      input.Taj.app_sources
  in
  let prog, reflection_stats, synthesized_sources =
    cache.Cache_iface.frontend ~descriptor:input.Taj.descriptor
      ~asts:app_units ~build:(fun () ->
        let prog = Jir.Program.create () in
        let descriptor =
          span "models.rewrite" (fun () ->
            Models.Frameworks.parse_descriptor input.Taj.descriptor)
        in
        span "jir.lower" (fun () ->
          List.iter (Jir.Lower.declare prog ~library:true) jdk_units;
          List.iter (Jir.Lower.declare prog ~library:false) app_units);
        let synth_src =
          span "models.rewrite" (fun () ->
            let cast_constraints =
              Models.Frameworks.form_cast_constraints app_units
            in
            Models.Frameworks.synthesize ~cast_constraints
              prog.Jir.Program.table descriptor)
        in
        let synth_units = [ parse synth_src ] in
        span "jir.lower" (fun () ->
          List.iter (Jir.Lower.declare prog ~library:false) synth_units;
          List.iter (Jir.Lower.define prog ~library:true) jdk_units;
          List.iter (Jir.Lower.define prog ~library:false) app_units;
          List.iter (Jir.Lower.define prog ~library:false) synth_units;
          Jir.Program.add_entrypoint prog Models.Frameworks.entry_method);
        span "jir.ssa" (fun () -> Jir.Ssa.convert_program prog);
        span "models.rewrite" (fun () ->
          let ejb_registry = Models.Frameworks.ejb_registry descriptor in
          let rs = Models.Reflection.rewrite_program ~ejb_registry prog in
          (prog, rs, Models.Exceptions.rewrite_program prog)))
  in
  { Taj.input; program = prog; reflection_stats; synthesized_sources;
    skipped_units = []; frontend_seconds = now () -. t0 }

(* [Taj.pointer_config] is not exported; this is the same record for the
   hybrid configurations the benchmark runs. *)
let pointer_config (loaded : Taj.loaded) (config : Config.t) rules =
  let m = Rules.matcher loaded.Taj.program.Jir.Program.table in
  let taint_api id = Rules.is_source_method_id rules m id in
  { Pointer.Andersen.policy = Pointer.Policy.default ~taint_api ();
    max_nodes = config.Config.max_cg_nodes;
    prioritized = config.Config.prioritized;
    is_source_method = taint_api;
    excluded_class = (fun cls -> List.mem cls config.Config.excluded_classes);
    max_work = None;
    interrupt = (fun () -> false) }

type counts = (string * float) list

(* [Taj.run]: the triage pre-filter (with its refine gating), pointer
   analysis, SDG, engine, sanitization judge and report. *)
let run (cache : Cache_iface.t) rules (loaded : Taj.loaded)
    (config : Config.t) : Taj.completed * counts =
  let t_start = now () in
  let prog = loaded.Taj.program in
  let filter =
    if config.Config.triage_filter && not config.Config.refine then
      Some (span "triage.infer" (fun () -> Taj.triage ~rules loaded))
    else None
  in
  let scan_filter =
    match filter with None -> fun _ -> true | Some v -> Triage.keep v
  in
  let skip_rule =
    match filter with
    | None -> fun _ -> false
    | Some v ->
      fun (r : Rules.rule) -> not (Triage.rule_has_source v r.Rules.rule_name)
  in
  let andersen =
    span "pointer.andersen" (fun () ->
      Pointer.Andersen.run ~config:(pointer_config loaded config rules) prog)
  in
  let builder =
    span "sdg.build" (fun () ->
      Sdg.Builder.build ~scan_filter ?defuse_cache:cache.Cache_iface.defuse
        prog andersen)
  in
  let heapgraph =
    span "pointer.heapgraph" (fun () -> Pointer.Heapgraph.build andersen)
  in
  let outcome =
    span "core.engine" (fun () ->
      Engine.run ~jobs:1 ~skip_rule ~prog ~builder ~heapgraph ~rules ~config ())
  in
  if outcome.Engine.rule_faults <> [] then
    failwith "engine did not complete cleanly";
  let flows =
    if not config.Config.contexts then outcome.Engine.flows
    else
      span "strings.judge" (fun () ->
        Sanitize.judge ?cache:cache.Cache_iface.strings ~prog ~builder ~rules
          outcome.Engine.flows)
  in
  let report =
    span "core.report" (fun () ->
      Report.make ~completeness:Report.Complete builder flows)
  in
  let cg = Pointer.Andersen.call_graph andersen in
  let st = Pointer.Andersen.statistics andersen in
  let tstats = Option.map Triage.stats filter in
  let rs = outcome.Engine.rule_stats in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let refined = outcome.Engine.refined in
  let counts =
    [ ("jir.instrs",
       float_of_int (Jir.Program.stats prog).Jir.Program.st_instrs);
      ("pointer.propagations", float_of_int st.Pointer.Andersen.propagations);
      ("pointer.nodes_processed",
       float_of_int st.Pointer.Andersen.nodes_processed);
      ("pointer.dispatches", float_of_int st.Pointer.Andersen.dispatches);
      ("pointer.dropped_calls", float_of_int st.Pointer.Andersen.dropped_calls);
      ("pointer.cg_nodes", float_of_int (Pointer.Callgraph.node_count cg));
      ("core.visited", sum (fun r -> r.Engine.rs_visited));
      ("core.heap_transitions", sum (fun r -> r.Engine.rs_heap_transitions));
      ("core.flows", float_of_int (List.length outcome.Engine.flows)) ]
    @ (match tstats with
       | None -> []
       | Some s ->
         [ ("triage.passes", float_of_int s.Triage.s_passes);
           ("triage.method_sweeps",
            float_of_int (s.Triage.s_passes * s.Triage.s_methods));
           ("triage.skip_ratio",
            if s.Triage.s_methods = 0 then 0.0
            else
              float_of_int s.Triage.s_skippable
              /. float_of_int s.Triage.s_methods) ])
    @ (match refined with
       | None -> []
       | Some r ->
         let n = r.Engine.rf_confirmed + r.Engine.rf_plausible in
         [ ("sdg.refine_steps", float_of_int r.Engine.rf_steps);
           ("sdg.refine_confirmed_ratio",
            if n = 0 then 0.0
            else float_of_int r.Engine.rf_confirmed /. float_of_int n) ])
  in
  let t_total = loaded.Taj.frontend_seconds +. (now () -. t_start) in
  ( { Taj.report; outcome; andersen; builder; heapgraph;
      cg_nodes = Pointer.Callgraph.node_count cg;
      cg_edges = Pointer.Callgraph.edge_count cg;
      jobs = 1;
      times =
        { Taj.t_frontend = loaded.Taj.frontend_seconds; t_pointer = 0.0;
          t_sdg = 0.0; t_taint = 0.0; t_total };
      diagnostics = [] },
    counts )

(* The text the CLI prints for a completed analysis. *)
let render (c : Taj.completed) =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Fmt.pf ppf "%a@." (Report.pp c.Taj.builder) c.Taj.report;
  List.iter
    (fun ir ->
       match
         String_context.diagnose c.Taj.builder ir.Report.ir_representative
       with
       | Some d ->
         Fmt.pf ppf "  context [%s]: %s@."
           (Rules.issue_name ir.Report.ir_issue) d
       | None -> ())
    c.Taj.report.Report.issues;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

let unit_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mjava")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let input_of_dir dir : Taj.input =
  let dd = Filename.concat dir "web.xml" in
  { Taj.name = "cli";
    app_sources = List.map Io.read_file (unit_files dir);
    descriptor = (if Sys.file_exists dd then Io.read_file dd else "") }

let config_of job =
  let flag k =
    match Json.member k job with Some (Json.Bool b) -> b | _ -> false
  in
  let scale = Option.value ~default:0.05 (Json.num_member "scale" job) in
  { (Config.preset ~scale Config.Hybrid_optimized) with
    Config.refine = flag "refine";
    contexts = flag "contexts";
    cache_dir = Json.str_member "cache" job }

(* ------------------------------------------------------------------ *)
(* Cache hooks, wrapped to count tier hits                           *)
(* ------------------------------------------------------------------ *)

type tier_counts = { mutable hit : int; mutable miss : int }

let counted_hooks (h : Cache_iface.t) =
  let ast = { hit = 0; miss = 0 } and front = { hit = 0; miss = 0 } in
  let defuse = { hit = 0; miss = 0 } in
  let hooks =
    { Cache_iface.unit_ast =
        (fun ~src ~parse ->
           let missed = ref false in
           let u =
             span "cache.tiers" (fun () ->
               h.Cache_iface.unit_ast ~src ~parse:(fun () ->
                 missed := true;
                 parse ()))
           in
           if !missed then ast.miss <- ast.miss + 1 else ast.hit <- ast.hit + 1;
           u);
      frontend =
        (fun ~descriptor ~asts ~build ->
           let missed = ref false in
           let r =
             span "cache.tiers" (fun () ->
               h.Cache_iface.frontend ~descriptor ~asts ~build:(fun () ->
                 missed := true;
                 build ()))
           in
           if !missed then front.miss <- front.miss + 1
           else front.hit <- front.hit + 1;
           r);
      defuse =
        Option.map
          (fun (d : Sdg.Builder.defuse_cache) ->
             { Sdg.Builder.dc_lookup =
                 (fun m ->
                    let r =
                      span "cache.tiers" (fun () -> d.Sdg.Builder.dc_lookup m)
                    in
                    if r = None then defuse.miss <- defuse.miss + 1
                    else defuse.hit <- defuse.hit + 1;
                    r);
               dc_store =
                 (fun m sum ->
                    span "cache.tiers" (fun () ->
                      d.Sdg.Builder.dc_store m sum)) })
          h.Cache_iface.defuse;
      strings =
        Option.map
          (fun (c : Strings.Summary.cache) ->
             { Strings.Summary.sc_lookup =
                 (fun m ->
                    span "cache.tiers" (fun () ->
                      c.Strings.Summary.sc_lookup m));
               sc_store =
                 (fun m t ->
                    span "cache.tiers" (fun () ->
                      c.Strings.Summary.sc_store m t)) })
          h.Cache_iface.strings }
  in
  let ratio t = if t.hit + t.miss = 0 then 0.0
    else float_of_int t.hit /. float_of_int (t.hit + t.miss) in
  (hooks, fun () ->
      [ ("cache.ast_hit_ratio", ratio ast);
        ("cache.front_hit_ratio", ratio front);
        ("cache.defuse_hit_ratio", ratio defuse) ])

(* ------------------------------------------------------------------ *)
(* One traced analysis                                                *)
(* ------------------------------------------------------------------ *)

let digest s = Digest.to_hex (Digest.string s)

type sample = {
  s_input : int;
  s_total : float;
  s_self : (string * float) list;
  s_counts : counts;
  s_issues : int;
  s_digest : string;
  s_report : Report.t;
  s_builder : Sdg.Builder.t;
}

(* One analysis as the CLI runs it: with [cache_dir], open the store,
   thread the (counted) hooks through load and run, and commit the result
   entries exactly as [taj analyze --cache] does. *)
let traced ~rules ~config ~cache_dir index (input : Taj.input) =
  reset_spans ();
  let parsed_bytes = ref 0 in
  let t0 = now () in
  let session =
    Option.map
      (fun dir ->
         span "cache.start" (fun () ->
           Cache.Incr.start (Cache.Incr.create ~dir) ~app:input.Taj.name))
      cache_dir
  in
  let hooks, hook_counts =
    match session with
    | Some s -> counted_hooks (Cache.Incr.hooks s)
    | None -> (Cache_iface.none, fun () -> [])
  in
  let loaded = load hooks input ~parsed_bytes in
  let c, counts = run hooks rules loaded config in
  let text = span "core.report" (fun () -> render c) in
  (match session with
   | None -> ()
   | Some s ->
     span "cache.commit" (fun () ->
       let cr =
         { Cache.Incr.cr_report =
             Cache.Incr.render_report c.Taj.builder c.Taj.report;
           cr_issues = Report.issue_count c.Taj.report;
           cr_flows = Report.flow_count c.Taj.report }
       in
       let keys =
         Cache.Incr.result_key ~rules ~config input
         :: Option.to_list (Cache.Incr.ast_result_key ~rules ~config ~loaded s)
       in
       Cache.Incr.commit
         ~results:(List.map (fun k -> (k, cr)) keys)
         ~analysis:c s));
  let total = now () -. t0 in
  let self = self_times () in
  let parse_s = Option.value ~default:0.0 (List.assoc_opt "jir.parse" self) in
  let issues = Report.issue_count c.Taj.report in
  let flows = Report.flow_count c.Taj.report in
  { s_input = index; s_total = total; s_self = self;
    s_counts =
      counts @ hook_counts ()
      @ [ ("jir.parsed_mb", float_of_int !parsed_bytes /. 1e6);
          ("jir.parse_mb_per_s",
           if parse_s > 0.0 then float_of_int !parsed_bytes /. 1e6 /. parse_s
           else 0.0);
          ("core.issues_per_flow",
           if flows = 0 then 0.0
           else float_of_int issues /. float_of_int flows) ];
    s_issues = issues; s_digest = digest text; s_report = c.Taj.report;
    s_builder = c.Taj.builder }

let num x = Json.Num x
let obj_of kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

let emit_sample ?(extra = []) s =
  print_endline
    (Json.to_string
       (Json.Obj
          ([ ("input", num (float_of_int s.s_input));
             ("total_s", num s.s_total);
             ("self_s", obj_of s.s_self);
             ("counts", obj_of s.s_counts);
             ("issues", num (float_of_int s.s_issues));
             ("digest", Json.Str s.s_digest) ]
           @ extra)))

(* planted real flows of [app] the report misses (generator ground truth) *)
let false_negatives ~app ~scale s =
  match Workloads.Apps.find app with
  | None -> failwith ("unknown app " ^ app)
  | Some a ->
    let g = Workloads.Apps.generate ~scale a in
    let cl =
      Workloads.Score.classify g.Workloads.Codegen.g_truth s.s_builder
        s.s_report
    in
    cl.Workloads.Score.false_negatives

(* ------------------------------------------------------------------ *)
(* Subcommands                                                        *)
(* ------------------------------------------------------------------ *)

let list_member k j =
  match Json.member k j with Some (Json.Arr l) -> l | _ -> []

(* Batch: every input once per round, rounds until [seconds] have passed
   and [min_reps] rounds are done. The first round of an input carrying
   an [app] name is also scored against the generator's ground truth. *)
let trace_batch job config ~seconds ~min_reps =
  let rules = Rules.default_rules in
  let scale = Option.value ~default:0.05 (Json.num_member "scale" job) in
  let inputs =
    List.map
      (fun j ->
         ( Json.str_member "app" j,
           input_of_dir (Option.get (Json.str_member "dir" j)) ))
      (list_member "inputs" job)
  in
  let t0 = now () in
  let round = ref 0 in
  while !round < min_reps || now () -. t0 < seconds do
    List.iteri
      (fun i (app, input) ->
         let s = traced ~rules ~config ~cache_dir:None i input in
         let extra =
           match app with
           | Some app when !round = 0 ->
             [ ("fn", num (float_of_int (false_negatives ~app ~scale s))) ]
           | _ -> []
         in
         emit_sample ~extra s)
      inputs;
    incr round
  done

(* Edit loop: apply the seeded edits in order (each appends text to one
   unit, cumulatively, as [run.py] does to the files) and analyse after
   each through the cache, as [taj analyze --cache] does. *)
let trace_edits job config ~seconds =
  let rules = Rules.default_rules in
  let dir = Option.get (Json.str_member "dir" job) in
  let input = input_of_dir dir in
  let units = Array.of_list input.Taj.app_sources in
  let t0 = now () in
  List.iteri
    (fun k e ->
       if now () -. t0 < seconds then begin
         let u = Option.get (Json.int_member "unit" e) in
         units.(u) <- units.(u) ^ Option.get (Json.str_member "append" e);
         let input = { input with Taj.app_sources = Array.to_list units } in
         let s =
           traced ~rules ~config ~cache_dir:config.Config.cache_dir k input
         in
         emit_sample s
       end)
    (list_member "edits" job);
  (* the store the edits left behind *)
  let cache_dir = Option.get config.Config.cache_dir in
  let files = Array.to_list (Sys.readdir cache_dir) in
  let bytes =
    List.fold_left
      (fun a f -> a + (Unix.stat (Filename.concat cache_dir f)).Unix.st_size)
      0 files
  in
  let entries =
    List.fold_left
      (fun a f ->
         if Filename.check_suffix f ".tajcache" then
           a
           + Cache.Store.entry_count
               (Cache.Store.load (Filename.concat cache_dir f))
         else a)
      0 files
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("store_entries", num (float_of_int entries));
            ("store_mb", num (float_of_int bytes /. 1e6)) ]))

let trace path =
  let job =
    match Json.parse (Io.read_file path) with
    | Ok j -> j
    | Error e -> failwith ("bad job file: " ^ e)
  in
  let config = config_of job in
  let seconds = Option.value ~default:1.0 (Json.num_member "seconds" job) in
  let min_reps = Option.value ~default:1 (Json.int_member "min_reps" job) in
  match Json.str_member "mode" job with
  | Some "batch" -> trace_batch job config ~seconds ~min_reps
  | Some "edits" -> trace_edits job config ~seconds
  | _ -> failwith "job mode must be batch or edits"

(* Weighted draw from the pattern catalog, then one instance of the drawn
   kind; the expected issue count is what a supervised run of the unit
   reports under the service's default request configuration. *)
let units ~seed ~n =
  let rng = Workloads.Rng.create seed in
  let catalog = Workloads.Patterns.catalog in
  let total = List.fold_left (fun a (_, w, _) -> a + w) 0 catalog in
  let draw () =
    let r = Workloads.Rng.int rng total in
    let rec go acc = function
      | [] -> assert false
      | (k, w, g) :: rest -> if r < acc + w then (k, g) else go (acc + w) rest
    in
    go 0 catalog
  in
  let config = Config.preset ~scale:0.05 Config.Hybrid_optimized in
  let options = { Supervisor.default_options with scale = 0.05 } in
  for i = 0 to n - 1 do
    let kind, gen = draw () in
    let out = gen ~id:i ~rng in
    let descriptor =
      String.concat "\n" out.Workloads.Patterns.descriptor_lines
    in
    let input =
      { Taj.name = Printf.sprintf "u%d" i;
        app_sources = [ out.Workloads.Patterns.source ];
        descriptor }
    in
    let o = Supervisor.run ~options ~config input in
    let issues =
      match o.Supervisor.sv_analysis with
      | Some { Taj.result = Taj.Completed c; _ }
        when o.Supervisor.sv_diagnostics = [] && o.Supervisor.sv_triage = None
             && not (Report.is_partial c.Taj.report) ->
        Report.issue_count c.Taj.report
      | _ -> -1
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("kind", Json.Str kind);
              ("source", Json.Str out.Workloads.Patterns.source);
              ("descriptor", Json.Str descriptor);
              ("issues", num (float_of_int issues)) ]))
  done

let () =
  match Array.to_list Sys.argv with
  | [ _; "trace"; path ] -> trace path
  | [ _; "units"; seed; n ] ->
    units ~seed:(int_of_string seed) ~n:(int_of_string n)
  | _ ->
    prerr_endline "usage: probe (trace JOB.json | units SEED N)";
    exit 2
