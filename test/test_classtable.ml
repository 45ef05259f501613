(* The class-hierarchy subtype index behind [Classtable.concrete_subtypes]:
   it must answer exactly what the brute-force definition answers — every
   concrete class that [is_subclass] admits, sorted by name — on hand-built
   corner cases and on every class name of the Table 2 apps, and it must
   be rebuilt when a class is added after a query. *)

open Jir

(* The definition the index replaces: a scan of every class. *)
let brute_force t d =
  Classtable.all_classes t
  |> List.filter (fun (c : Classtable.cls) ->
    c.Classtable.cl_kind = Classtable.Class_kind
    && (not c.Classtable.cl_abstract)
    && Classtable.is_subclass t c.Classtable.cl_name d)
  |> List.map (fun (c : Classtable.cls) -> c.Classtable.cl_name)
  |> List.sort String.compare

(* Every declared name, every supertype name a declaration mentions
   (declared or not), "Object", and a name nothing mentions. *)
let query_names t =
  let names = Hashtbl.create 256 in
  let add n = Hashtbl.replace names n () in
  List.iter add [ "Object"; "$NoSuchClass" ];
  Classtable.iter t (fun c ->
    add c.Classtable.cl_name;
    Option.iter add c.Classtable.cl_super;
    List.iter add c.Classtable.cl_ifaces);
  Hashtbl.fold (fun n () acc -> n :: acc) names [] |> List.sort String.compare

let check_equivalent label t =
  List.iter
    (fun d ->
       Alcotest.(check (list string))
         (Printf.sprintf "%s: concrete subtypes of %s" label d)
         (brute_force t d)
         (Classtable.concrete_subtypes t d))
    (query_names t)

let table_of src =
  let t = Classtable.create () in
  List.iter (Classtable.add_decl t ~library:false) (Parser.parse src);
  t

let hierarchy =
  {|interface Top { }
    interface Left extends Top { }
    interface Right extends Top { }
    class Diamond implements Left, Right { }
    abstract class Base extends Diamond { }
    abstract class Middle extends Base { }
    class Leaf extends Middle { }
    class Orphan extends Missing implements Right { }
    class Plain { }|}

let test_hand_built_hierarchy () =
  let t = table_of hierarchy in
  let check d want =
    Alcotest.(check (list string)) ("subtypes of " ^ d) want
      (Classtable.concrete_subtypes t d)
  in
  (* interface extends interface, and a diamond through interfaces:
     Diamond reaches Top twice but is listed once *)
  check "Top" [ "Diamond"; "Leaf"; "Orphan" ];
  check "Left" [ "Diamond"; "Leaf" ];
  check "Right" [ "Diamond"; "Leaf"; "Orphan" ];
  (* abstract intermediates are walked through but never listed *)
  check "Base" [ "Leaf" ];
  check "Middle" [ "Leaf" ];
  check "Diamond" [ "Diamond"; "Leaf" ];
  (* a supertype missing from the table still indexes its subclasses *)
  check "Missing" [ "Orphan" ];
  (* Object covers every concrete class, declared super or not *)
  check "Object" [ "Diamond"; "Leaf"; "Orphan"; "Plain" ];
  check "$NoSuchClass" [];
  check_equivalent "hand-built" t

let test_add_invalidates_index () =
  let t = table_of hierarchy in
  Alcotest.(check (list string)) "before add" [ "Leaf" ]
    (Classtable.concrete_subtypes t "Middle");
  List.iter
    (Classtable.add_decl t ~library:false)
    (Parser.parse "class Late extends Middle implements Left { }");
  Alcotest.(check (list string)) "Middle after add" [ "Late"; "Leaf" ]
    (Classtable.concrete_subtypes t "Middle");
  Alcotest.(check (list string)) "Left after add" [ "Diamond"; "Late"; "Leaf" ]
    (Classtable.concrete_subtypes t "Left");
  Alcotest.(check (list string)) "Object after add"
    [ "Diamond"; "Late"; "Leaf"; "Orphan"; "Plain" ]
    (Classtable.concrete_subtypes t "Object");
  check_equivalent "after add" t

(* The loaded program's table (model JDK, application, synthesized
   entrypoints) of every Table 2 app. *)
let test_table2_equivalence () =
  List.iter
    (fun (a : Workloads.Apps.app) ->
       let loaded =
         Core.Taj.load
           (Workloads.Codegen.to_input (Workloads.Apps.generate ~scale:0.05 a))
       in
       check_equivalent a.Workloads.Apps.name
         loaded.Core.Taj.program.Program.table)
    Workloads.Apps.table2

let suite =
  [ Alcotest.test_case "hand-built hierarchy" `Quick test_hand_built_hierarchy;
    Alcotest.test_case "add invalidates the index" `Quick
      test_add_invalidates_index;
    Alcotest.test_case "index equals brute force on Table 2" `Quick
      test_table2_equivalence ]
