(* Lexer unit tests. *)

open Jir

let toks src =
  List.map (fun l -> l.Lexer.tok) (Lexer.tokenize src)

let tok = Alcotest.testable Lexer.pp_token ( = )

let check_toks msg src expected =
  Alcotest.(check (list tok)) msg expected (toks src)

let test_idents_keywords () =
  check_toks "mix" "class Foo extends bar"
    [ KW "class"; IDENT "Foo"; KW "extends"; IDENT "bar"; EOF ];
  List.iter
    (fun k -> check_toks ("keyword " ^ k) k [ KW k; EOF ])
    Lexer.keywords;
  (* a keyword as a prefix, suffix or part of a longer name is an identifier *)
  check_toks "keyword inside identifiers" "classy doIt iff done newX"
    [ IDENT "classy"; IDENT "doIt"; IDENT "iff"; IDENT "done"; IDENT "newX";
      EOF ]

let test_numbers () =
  check_toks "ints" "0 42 1234"
    [ INT 0; INT 42; INT 1234; EOF ]

let test_strings () =
  check_toks "plain" {|"hello"|} [ STRING "hello"; EOF ];
  check_toks "escapes" {|"a\nb\t\"q\""|} [ STRING "a\nb\t\"q\""; EOF ];
  check_toks "empty" {|""|} [ STRING ""; EOF ]

let test_chars () =
  check_toks "char" "'x'" [ CHAR 'x'; EOF ];
  check_toks "escaped" {|'\n'|} [ CHAR '\n'; EOF ]

let test_puncts () =
  check_toks "ops" "== != <= >= && || + - * / % = < > ! . , ; ( ) { } [ ]"
    [ PUNCT "=="; PUNCT "!="; PUNCT "<="; PUNCT ">="; PUNCT "&&"; PUNCT "||";
      PUNCT "+"; PUNCT "-"; PUNCT "*"; PUNCT "/"; PUNCT "%"; PUNCT "=";
      PUNCT "<"; PUNCT ">"; PUNCT "!"; PUNCT "."; PUNCT ","; PUNCT ";";
      PUNCT "("; PUNCT ")"; PUNCT "{"; PUNCT "}"; PUNCT "["; PUNCT "]"; EOF ];
  check_toks "compound ops" "++ -- += -= *= /="
    [ PUNCT "++"; PUNCT "--"; PUNCT "+="; PUNCT "-="; PUNCT "*=";
      PUNCT "/="; EOF ];
  check_toks "single-char ops" "& | ? :"
    [ PUNCT "&"; PUNCT "|"; PUNCT "?"; PUNCT ":"; EOF ];
  (* greedy: the longest operator at each position wins *)
  check_toks "greedy a+++b" "a+++b"
    [ IDENT "a"; PUNCT "++"; PUNCT "+"; IDENT "b"; EOF ];
  check_toks "greedy x==-1" "x==-1"
    [ IDENT "x"; PUNCT "=="; PUNCT "-"; INT 1; EOF ]

let test_comments () =
  check_toks "line" "a // comment\nb" [ IDENT "a"; IDENT "b"; EOF ];
  check_toks "block" "a /* x\ny */ b" [ IDENT "a"; IDENT "b"; EOF ];
  check_toks "block with stars" "a /* ** */ b" [ IDENT "a"; IDENT "b"; EOF ]

let test_positions () =
  let located = Lexer.tokenize "a\n  b" in
  match located with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.pos.Ast.line;
    Alcotest.(check int) "b line" 2 b.Lexer.pos.Ast.line;
    Alcotest.(check int) "b col" 3 b.Lexer.pos.Ast.col
  | _ -> Alcotest.fail "expected three tokens"

let test_errors () =
  let lex_fails src =
    match Lexer.tokenize src with
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected lex error on %S" src
  in
  lex_fails "\"unterminated";
  lex_fails "/* unterminated";
  lex_fails "#"

let suite =
  [ Alcotest.test_case "idents and keywords" `Quick test_idents_keywords;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "chars" `Quick test_chars;
    Alcotest.test_case "punctuation" `Quick test_puncts;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "errors" `Quick test_errors ]
