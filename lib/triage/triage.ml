(** Type-based taint triage (see the interface for the soundness
    contract: triage must taint at least as much as the tabulation
    engine ever propagates, so the pre-filter can never change a
    report). *)

open Jir

module Telemetry = Obs.Telemetry

let m_sweeps = Telemetry.counter "triage.sweeps"
let m_findings = Telemetry.counter "triage.findings"
let m_resolutions = Telemetry.counter "triage.resolutions"
let m_dispatch_probes = Telemetry.counter "triage.dispatch_probes"
let h_infer_us = Telemetry.histogram "triage.infer_us"

type qual = Untainted | Unknown | Tainted

let rank = function Untainted -> 0 | Unknown -> 1 | Tainted -> 2
let join a b = if rank a >= rank b then a else b

let qual_name = function
  | Untainted -> "untainted"
  | Unknown -> "unknown"
  | Tainted -> "tainted"

type call_rules = {
  cr_source_ret : string list;
  cr_source_params : (int * string) list;
  cr_sanitizer : bool;
  cr_sanitizes_all : bool;
  cr_sinks : (string * int list) list;
}

let no_rules =
  { cr_source_ret = [];
    cr_source_params = [];
    cr_sanitizer = false;
    cr_sanitizes_all = false;
    cr_sinks = [] }

let is_plain cr =
  cr.cr_source_ret = [] && cr.cr_source_params = []
  && (not cr.cr_sanitizer) && cr.cr_sinks = []

type finding = {
  f_rule : string;
  f_issue : string;
  f_class : string;
  f_meth : string;
  f_method_id : string;
  f_sink : string;
  f_site : int;
  f_qual : qual;
}

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %s -> %s in %s (%s)" f.f_rule f.f_issue f.f_sink
    f.f_method_id (qual_name f.f_qual)

type stats = {
  s_methods : int;
  s_skippable : int;
  s_tainted_methods : int;
  s_findings : int;
  s_passes : int;
  s_seconds : float;
}

type verdict = {
  v_findings : finding list;
  v_keep : (string, unit) Hashtbl.t;
  v_rules_with_sources : (string, unit) Hashtbl.t;
  v_stats : stats;
}

let findings v = v.v_findings
let stats v = v.v_stats
let keep_id v id = Hashtbl.mem v.v_keep id
let keep v (m : Tac.meth) = keep_id v (Tac.method_id m)
let rule_has_source v rule = Hashtbl.mem v.v_rules_with_sources rule

(* ------------------------------------------------------------------ *)
(* CHA call resolution                                                *)
(* ------------------------------------------------------------------ *)

(* Targets of a call under class-hierarchy analysis — a superset of the
   pointer call graph's edges, which is what makes propagating through
   every CHA target sound for the filter. A pure function of the call's
   kind and target, so [infer] resolves each distinct pair once. *)
type resolution = {
  r_bodies : string list;     (* target method ids with bodies *)
  r_bodyless : string list;   (* native/abstract targets (summary flow) *)
  r_unknown : bool;           (* receiver class missing from the table *)
}

let resolve_call (table : Classtable.t) (prog : Program.t)
    (kind : Tac.call_kind) (target : Tac.mref) : resolution =
  Telemetry.incr m_resolutions;
  let minfo_id (mi : Classtable.minfo) =
    Printf.sprintf "%s.%s/%d" mi.Classtable.mi_class mi.Classtable.mi_name
      mi.Classtable.mi_arity
  in
  let { Tac.rclass; rname; rarity } = target in
  let known = Classtable.mem table rclass in
  let minfos =
    if not known then []
    else
      match kind with
      | Tac.Static | Tac.Special ->
        (match Classtable.resolve_static table rclass rname rarity with
         | Some mi -> [ mi ]
         | None -> [])
      | Tac.Virtual ->
        let base =
          match Classtable.lookup_method table rclass rname rarity with
          | Some mi -> [ mi ]
          | None -> []
        in
        let dispatched =
          List.filter_map
            (fun sub ->
               Telemetry.incr m_dispatch_probes;
               Classtable.dispatch table sub rname rarity)
            (Classtable.concrete_subtypes table rclass)
        in
        base @ dispatched
  in
  let seen = Hashtbl.create 8 in
  let bodies = ref [] and bodyless = ref [] in
  List.iter
    (fun mi ->
       let id = minfo_id mi in
       if not (Hashtbl.mem seen id) then begin
         Hashtbl.add seen id ();
         match Program.find_method prog id with
         | Some m when m.Tac.m_has_body -> bodies := id :: !bodies
         | _ -> bodyless := id :: !bodyless
       end)
    minfos;
  { r_bodies = List.rev !bodies;
    r_bodyless = List.rev !bodyless;
    r_unknown = (not known) || minfos = [] }

let is_reflective_invoke (c : Tac.call) =
  let t = c.Tac.target in
  String.equal t.Tac.rclass "Method"
  && String.equal t.Tac.rname "invoke"
  && t.Tac.rarity = 3

(* ------------------------------------------------------------------ *)
(* Inference                                                          *)
(* ------------------------------------------------------------------ *)

let infer ?(tick = fun () -> ()) ?(issue_of_rule = fun r -> r)
    ~(classify : Tac.call -> call_rules) (prog : Program.t) : verdict =
  Telemetry.with_span "triage.infer" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let table = prog.Program.table in
  let method_ids = Program.all_method_ids prog in
  let methods =
    List.filter_map (Program.find_method prog) method_ids
  in
  (* per-method register qualifiers *)
  let vars : (string, qual array) Hashtbl.t =
    Hashtbl.create (List.length methods)
  in
  (* per-method formal-parameter qualifiers, fed by call arguments *)
  let params : (string, qual array) Hashtbl.t =
    Hashtbl.create (List.length methods)
  in
  (* per-method return qualifier *)
  let rets : (string, qual) Hashtbl.t = Hashtbl.create 256 in
  (* field bits, keyed by field name only: coarser than the engine's
     per-instance-key heap edges, hence sound. The dictionary model's
     synthetic $key/$all/$any fields land here too. *)
  let fields : (string, qual) Hashtbl.t = Hashtbl.create 256 in
  (* "content coupling" of a method that has no tainted register of its
     own but performs an operation the engine treats as a heap load at a
     call statement (native by-reference transfers, reflective invoke) *)
  let extras : (string, qual) Hashtbl.t = Hashtbl.create 32 in
  (* global channels *)
  let content = ref Untainted in   (* contents of source-returned objects *)
  let arrays = ref Untainted in    (* array-element channel *)
  let thrown = ref Untainted in    (* throw -> catch channel *)
  let changed = ref false in
  let raise_to cur q = if rank q > rank cur then (changed := true; true) else false in
  let set_global cell q = if raise_to !cell q then cell := q in
  let set_tbl tbl key q =
    let cur =
      match Hashtbl.find_opt tbl key with Some c -> c | None -> Untainted
    in
    if raise_to cur q then Hashtbl.replace tbl key (join cur q)
  in
  let get_tbl tbl key =
    match Hashtbl.find_opt tbl key with Some q -> q | None -> Untainted
  in
  let param_array mid arity =
    match Hashtbl.find_opt params mid with
    | Some a -> a
    | None ->
      let a = Array.make (max arity 1) Untainted in
      Hashtbl.add params mid a;
      a
  in
  (* call classification and CHA resolution are pure functions of the
     call's kind and target, so both are memoized per distinct target,
     not per site: the many sites of one popular target share a single
     rule lookup and a single dispatch over its receiver's subtypes *)
  let rules_memo : (Tac.call_kind * Tac.mref, call_rules) Hashtbl.t =
    Hashtbl.create 1024
  in
  let resolve_memo : (Tac.call_kind * Tac.mref, resolution) Hashtbl.t =
    Hashtbl.create 1024
  in
  let dict_memo : (int, Models.Dict_model.op option) Hashtbl.t =
    Hashtbl.create 256
  in
  let rules_with_sources : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rules_of (c : Tac.call) =
    let key = (c.Tac.kind, c.Tac.target) in
    match Hashtbl.find_opt rules_memo key with
    | Some cr -> cr
    | None ->
      let cr = classify c in
      List.iter
        (fun r -> Hashtbl.replace rules_with_sources r ())
        cr.cr_source_ret;
      List.iter
        (fun (_, r) -> Hashtbl.replace rules_with_sources r ())
        cr.cr_source_params;
      Hashtbl.add rules_memo key cr;
      cr
  in
  let resolution_of (c : Tac.call) =
    let key = (c.Tac.kind, c.Tac.target) in
    match Hashtbl.find_opt resolve_memo key with
    | Some r -> r
    | None ->
      let r = resolve_call table prog c.Tac.kind c.Tac.target in
      Hashtbl.add resolve_memo key r;
      r
  in
  let dict_of ~const_of (c : Tac.call) =
    match Hashtbl.find_opt dict_memo c.Tac.site with
    | Some op -> op
    | None ->
      let op =
        Models.Dict_model.classify ~const_of:(fun v -> Lazy.force const_of v) c
      in
      Hashtbl.add dict_memo c.Tac.site op;
      op
  in
  let sweep (m : Tac.meth) =
    tick ();
    Telemetry.incr m_sweeps;
    let mid = Tac.method_id m in
    let vq =
      match Hashtbl.find_opt vars mid with
      | Some a -> a
      | None ->
        let a = Array.make (max m.Tac.m_nvars 1) Untainted in
        Hashtbl.add vars mid a;
        a
    in
    let getv v =
      if v >= 0 && v < Array.length vq then vq.(v) else Untainted
    in
    let setv v q =
      if v >= 0 && v < Array.length vq && raise_to vq.(v) q then
        vq.(v) <- join vq.(v) q
    in
    (* formals receive what call sites passed in *)
    let pq = param_array mid m.Tac.m_arity in
    Array.iteri (fun i q -> setv i q) pq;
    (* the SSA def-site scan behind [const_of] is only needed when a
       site misses [dict_memo]; the first sweep of a method classifies
       all its sites, so the scan runs at most once per method *)
    let const_of = lazy (Models.Dict_model.const_of_meth m) in
    let do_call (c : Tac.call) =
      let cr = rules_of c in
      let argq = List.map getv c.Tac.args in
      let jargs = List.fold_left join Untainted argq in
      (* sources: the return value is tainted and, because the engine
         additionally seeds every load of the returned object's pointees
         (and, for by-reference sources, of the argument's pointees),
         the global content channels go tainted too *)
      if cr.cr_source_ret <> [] then begin
        set_global content Tainted;
        match c.Tac.ret with Some r -> setv r Tainted | None -> ()
      end;
      List.iter
        (fun (i, _) ->
           set_global content Tainted;
           set_global arrays Tainted;
           match List.nth_opt c.Tac.args i with
           | Some a -> setv a Tainted
           | None -> ())
        cr.cr_source_params;
      (* dictionary model: puts/gets are field stores/loads under the
         model's synthetic key fields — reuse the field-name bits *)
      (match dict_of ~const_of c with
       | Some (Models.Dict_model.Dict_put { key; value; _ }) ->
         List.iter
           (fun (f : Tac.field) -> set_tbl fields f.Tac.fname (getv value))
           (Models.Dict_model.put_fields key)
       | Some (Models.Dict_model.Dict_get { dst; key; _ }) ->
         let q =
           List.fold_left
             (fun acc (f : Tac.field) -> join acc (get_tbl fields f.Tac.fname))
             !content
             (Models.Dict_model.get_fields key)
         in
         setv dst q
       | None -> ());
      (* interprocedural propagation over the CHA targets *)
      let res = resolution_of c in
      let ret_join = ref jargs in
      List.iter
        (fun callee ->
           let cpq = param_array callee (List.length c.Tac.args) in
           List.iteri
             (fun i q ->
                if i < Array.length cpq && raise_to cpq.(i) q then
                  cpq.(i) <- join cpq.(i) q)
             argq;
           ret_join := join !ret_join (get_tbl rets callee))
        res.r_bodies;
      List.iter
        (fun callee ->
           let transfers =
             Models.Natives.summary ~meth_id:callee
               ~arity:(List.length c.Tac.args)
               ~has_ret:(c.Tac.ret <> None)
           in
           List.iter
             (fun (tr : Models.Natives.transfer) ->
                let q =
                  match List.nth_opt argq tr.Models.Natives.t_from with
                  | Some q -> q
                  | None -> Untainted
                in
                match tr.Models.Natives.t_to with
                | Models.Natives.Ret ->
                  (* by-reference natives read the contents of the
                     source argument at the call statement *)
                  ret_join := join !ret_join (join q (join !content !arrays))
                | Models.Natives.Param _ ->
                  (* the engine models the write as a load of the source
                     contents plus a store into the target's elements:
                     couple both global channels and remember that this
                     method touches them even without a tainted register *)
                  set_global content q;
                  set_global arrays q;
                  set_tbl extras mid (join !content !arrays))
             transfers)
        res.r_bodyless;
      if res.r_unknown then ret_join := join !ret_join (join Unknown jargs);
      (* an unresolved reflective invoke consumes the contents of its
         argument array (the builder models it as an element load) *)
      if is_reflective_invoke c then begin
        set_tbl extras mid (join !content !arrays);
        ret_join := join !ret_join (join !content !arrays)
      end;
      (* the rule-insensitive taint bit may only honour a sanitizer that
         endorses for every rule; otherwise the engine still propagates
         for the rules the method does not sanitize *)
      if not cr.cr_sanitizes_all then
        match c.Tac.ret with Some r -> setv r !ret_join | None -> ()
    in
    Array.iter
      (fun (b : Tac.block) ->
         List.iter
           (fun (p : Tac.phi) ->
              List.iter
                (fun (_, v) -> setv p.Tac.phi_lhs (getv v))
                p.Tac.phi_args)
           b.Tac.phis;
         Array.iter
           (fun ins ->
              match ins with
              | Tac.Const _ | Tac.New _ | Tac.New_array _ | Tac.Nop -> ()
              | Tac.Move (d, s)
              | Tac.Unop (d, _, s)
              | Tac.Cast (d, _, s)
              | Tac.Instance_of (d, _, s)
              | Tac.Array_len (d, s) -> setv d (getv s)
              | Tac.Binop (d, _, a, b') | Tac.Strcat (d, a, b') ->
                setv d (join (getv a) (getv b'))
              | Tac.Load (d, _, f) ->
                setv d (join (get_tbl fields f.Tac.fname) !content)
              | Tac.Sload (d, f) ->
                setv d (join (get_tbl fields f.Tac.fname) !content)
              | Tac.Store (_, f, v) -> set_tbl fields f.Tac.fname (getv v)
              | Tac.Sstore (f, v) -> set_tbl fields f.Tac.fname (getv v)
              | Tac.Aload (d, _, _) -> setv d (join !arrays !content)
              | Tac.Astore (_, _, v) -> set_global arrays (getv v)
              | Tac.Catch_entry (v, _) -> setv v !thrown
              | Tac.Call c -> do_call c)
           b.Tac.instrs;
         match b.Tac.term with
         | Tac.Throw v -> set_global thrown (getv v)
         | Tac.Return (Some v) -> set_tbl rets mid (getv v)
         | _ -> ())
      m.Tac.m_blocks
  in
  (* worklist fixpoint: sweep every method until nothing moves. The
     lattice has height 2 per cell, so the pass count is bounded by the
     longest dependency chain; the cap is a safety net only. *)
  let passes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !passes < 1000 do
    incr passes;
    changed := false;
    List.iter sweep methods;
    continue_ := !changed
  done;
  (* findings: sink call sites whose sensitive arguments are not provably
     untainted *)
  let findings = ref [] in
  (* carrier channel: the engine's §4.1.1 carrier detector fires at a sink
     when a Tainted fact was stored into the heap reachable from a sink
     argument — a constructor storing a parameter into [this], taint parked
     several dereferences deep, the synthesized [e.msg] store at catch
     entries. With no pointer information the reachable-heap test collapses
     to one global bit: some instance field or array element holds a
     Tainted fact. It is joined into every sink argument that can be a heap
     reference; registers defined by [Const], arithmetic, or string
     concatenation never point into the heap and stay exempt, which keeps
     taint-free sink arguments silent. Like the engine's detector it fires
     only on actual taint facts, never on Unknown. *)
  let heap_carrier =
    let q = Hashtbl.fold (fun _ v acc -> join acc v) fields !arrays in
    if q = Tainted then Tainted else Untainted
  in
  List.iter
    (fun (m : Tac.meth) ->
       let mid = Tac.method_id m in
       let vq =
         match Hashtbl.find_opt vars mid with Some a -> a | None -> [||]
       in
       let getv v =
         if v >= 0 && v < Array.length vq then vq.(v) else Untainted
       in
       let nv = max m.Tac.m_nvars 1 in
       let value_only = Array.make nv false in
       Array.iter
         (fun (b : Tac.block) ->
            Array.iter
              (fun ins ->
                 match ins with
                 | Tac.Const (d, _)
                 | Tac.Binop (d, _, _, _)
                 | Tac.Unop (d, _, _)
                 | Tac.Array_len (d, _)
                 | Tac.Instance_of (d, _, _)
                 | Tac.Strcat (d, _, _) ->
                   if d >= 0 && d < nv then value_only.(d) <- true
                 | _ -> ())
              b.Tac.instrs)
         m.Tac.m_blocks;
       let arg_qual a =
         let q = getv a in
         if a >= 0 && a < nv && value_only.(a) then q
         else join q heap_carrier
       in
       Array.iter
         (fun (b : Tac.block) ->
            Array.iter
              (fun ins ->
                 match ins with
                 | Tac.Call c ->
                   let cr = rules_of c in
                   List.iter
                     (fun (rule, idxs) ->
                        let q =
                          List.fold_left
                            (fun acc i ->
                               match List.nth_opt c.Tac.args i with
                               | Some a -> join acc (arg_qual a)
                               | None -> acc)
                            Untainted idxs
                        in
                        if q <> Untainted then
                          findings :=
                            { f_rule = rule;
                              f_issue = issue_of_rule rule;
                              f_class = m.Tac.m_class;
                              f_meth = m.Tac.m_name;
                              f_method_id = mid;
                              f_sink = Tac.mref_id c.Tac.target;
                              f_site = c.Tac.site;
                              f_qual = q }
                            :: !findings)
                     cr.cr_sinks
                 | _ -> ())
              b.Tac.instrs)
         m.Tac.m_blocks)
    methods;
  let findings =
    List.sort
      (fun a b ->
         match compare a.f_rule b.f_rule with
         | 0 ->
           (match compare a.f_method_id b.f_method_id with
            | 0 -> compare a.f_site b.f_site
            | c -> c)
         | c -> c)
      !findings
  in
  Telemetry.add m_findings (List.length findings);
  (* retention: a method stays in the full pipeline when any register
     (or its content coupling) may carry taint, or when it contains a
     call the rules care about (sources seed, sinks anchor carrier
     sets, sanitizers endorse — all three are consulted positionally
     by the engine and must stay indexed) *)
  let kept : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let tainted_methods = ref 0 in
  List.iter
    (fun (m : Tac.meth) ->
       let mid = Tac.method_id m in
       let vq =
         match Hashtbl.find_opt vars mid with Some a -> a | None -> [||]
       in
       let tainted =
         Array.exists (fun q -> q <> Untainted) vq
         || get_tbl extras mid <> Untainted
       in
       if tainted then incr tainted_methods;
       let relevant = ref false in
       Array.iter
         (fun (b : Tac.block) ->
            Array.iter
              (fun ins ->
                 match ins with
                 | Tac.Call c -> if not (is_plain (rules_of c)) then relevant := true
                 | _ -> ())
              b.Tac.instrs)
         m.Tac.m_blocks;
       if tainted || !relevant then Hashtbl.replace kept mid ())
    methods;
  let n_methods = List.length methods in
  let skippable = n_methods - Hashtbl.length kept in
  let seconds = Unix.gettimeofday () -. t0 in
  Telemetry.observe h_infer_us (int_of_float (seconds *. 1e6));
  { v_findings = findings;
    v_keep = kept;
    v_rules_with_sources = rules_with_sources;
    v_stats =
      { s_methods = n_methods;
        s_skippable = skippable;
        s_tainted_methods = !tainted_methods;
        s_findings = List.length findings;
        s_passes = !passes;
        s_seconds = seconds } }
