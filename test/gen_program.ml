(* QCheck generators for Algol-S.

   [ast] generates syntactically plausible (not necessarily well-scoped)
   programs for the parse/print round-trip.

   [valid_program] generates well-scoped programs that are guaranteed to
   terminate, never divide by zero, never index out of bounds, never
   read a local before defining it and never assign their own loop
   variable — the class over which all execution
   engines must agree exactly.  It is the backbone of the differential
   tests (HLR interpreter vs DIR interpreter vs simulated machine). *)

open Uhm_hlr
open QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Arbitrary (syntactic) ASTs for the printer round-trip              *)
(* ------------------------------------------------------------------ *)

let ident_gen = oneofl [ "a"; "b"; "c"; "x"; "y"; "z"; "foo"; "bar" ]

let binop_gen =
  oneofl
    Ast.[ Add_op; Sub_op; Mul_op; Div_op; Mod_op; Eq_op; Ne_op; Lt_op; Le_op;
          Gt_op; Ge_op; And_op; Or_op ]

let rec expr_gen depth =
  if depth <= 0 then
    oneof [ map (fun n -> Ast.Num n) (int_range 0 999); map (fun v -> Ast.Var v) ident_gen ]
  else
    frequency
      [
        (2, map (fun n -> Ast.Num n) (int_range 0 999));
        (2, map (fun v -> Ast.Var v) ident_gen);
        ( 2,
          map2 (fun name e -> Ast.Subscript (name, e)) ident_gen
            (expr_gen (depth - 1)) );
        ( 1,
          map2 (fun name args -> Ast.Call_expr (name, args)) ident_gen
            (list_size (int_range 0 3) (expr_gen (depth - 1))) );
        (1, map (fun e -> Ast.Unop (Ast.Neg_op, e)) (expr_gen (depth - 1)));
        (1, map (fun e -> Ast.Unop (Ast.Not_op, e)) (expr_gen (depth - 1)));
        ( 4,
          map3
            (fun op lhs rhs -> Ast.Binop (op, lhs, rhs))
            binop_gen (expr_gen (depth - 1)) (expr_gen (depth - 1)) );
      ]

let rec stmt_gen depth =
  let leaf =
    oneof
      [
        return Ast.Skip;
        map2 (fun v e -> Ast.Assign (v, e)) ident_gen (expr_gen 2);
        map3 (fun v i e -> Ast.Assign_sub (v, i, e)) ident_gen (expr_gen 1) (expr_gen 2);
        map (fun e -> Ast.Print e) (expr_gen 2);
        map (fun e -> Ast.Printc e) (expr_gen 2);
        map (fun s -> Ast.Write s) (oneofl [ "hi"; "x = "; "done" ]);
        map2 (fun name args -> Ast.Call_stmt (name, args)) ident_gen
          (list_size (int_range 0 2) (expr_gen 1));
        map (fun e -> Ast.Return e) (opt (expr_gen 2));
      ]
  in
  if depth <= 0 then leaf
  else
    frequency
      [
        (4, leaf);
        ( 1,
          map3
            (fun c t e -> Ast.If (c, t, e))
            (expr_gen 2) (stmt_gen (depth - 1))
            (opt (stmt_gen (depth - 1))) );
        (1, map2 (fun c b -> Ast.While (c, b)) (expr_gen 2) (stmt_gen (depth - 1)));
        ( 1,
          ident_gen >>= fun v ->
          expr_gen 1 >>= fun start ->
          oneofl [ Ast.Upto; Ast.Downto ] >>= fun dir ->
          expr_gen 1 >>= fun stop ->
          map (fun b -> Ast.For (v, start, dir, stop, b)) (stmt_gen (depth - 1)) );
        (1, map (fun b -> Ast.Block b) (block_gen (depth - 1)));
      ]

and decl_gen depth =
  let simple =
    [
      (3, map2 (fun v init -> Ast.Var_decl (v, init)) ident_gen (opt (expr_gen 1)));
      (1, map2 (fun v n -> Ast.Array_decl (v, n)) ident_gen (int_range 1 20));
    ]
  in
  let procs =
    (* strictly depth-decreasing: no procedures at the recursion floor *)
    if depth <= 0 then []
    else
      [
        ( 1,
          map3
            (fun name params body -> Ast.Proc_decl (name, params, body))
            ident_gen
            (list_size (int_range 0 3) ident_gen)
            (block_gen (depth - 1)) );
      ]
  in
  frequency (simple @ procs)

and block_gen depth =
  map2
    (fun decls stmts -> { Ast.decls; stmts })
    (list_size (int_range 0 3) (decl_gen depth))
    (list_size (int_range 0 4) (stmt_gen depth))

let ast =
  QCheck.make
    ~print:(fun p -> Pretty.to_string p)
    (map (fun body -> { Ast.name = "<gen>"; body }) (block_gen 3))

(* ------------------------------------------------------------------ *)
(* Valid, terminating programs                                        *)
(* ------------------------------------------------------------------ *)

type genv = {
  scalars : string list;      (* assignable scalars in scope *)
  loop_vars : string list;    (* readable but not assignable *)
  arrays : (string * int) list;
  procs : (string * int) list; (* name, arity *)
  fresh : int ref;
}

let fresh_name env prefix =
  let n = !(env.fresh) in
  env.fresh := n + 1;
  Printf.sprintf "%s%d" prefix n

let readable_scalars env = env.scalars @ env.loop_vars

(* Expressions built from in-scope names; division only by non-zero
   literals; array reads only at indices [safe_index] can prove in range. *)
let rec valid_expr env depth =
  let literal = map (fun n -> Ast.Num n) (int_range (-50) 50) in
  let base =
    match readable_scalars env with
    | [] -> [ (3, literal) ]
    | vars -> [ (2, literal); (3, map (fun v -> Ast.Var v) (oneofl vars)) ]
  in
  let arrays =
    match env.arrays with
    | [] -> []
    | arrays ->
        [
          ( 2,
            oneofl arrays >>= fun (name, size) ->
            map (fun i -> Ast.Subscript (name, i)) (safe_index env size) );
        ]
  in
  let calls =
    if depth <= 0 then []
    else
      match env.procs with
      | [] -> []
      | procs ->
          let call_gen =
            oneofl procs >>= fun (name, arity) ->
            let args_gen =
              flatten_l (List.init arity (fun _ -> valid_expr env (depth - 1)))
            in
            map (fun args -> Ast.Call_expr (name, args)) args_gen
          in
          [ (1, call_gen) ]
  in
  let compound =
    if depth <= 0 then []
    else
      [
        ( 3,
          oneofl
            Ast.[ Add_op; Sub_op; Mul_op; Eq_op; Ne_op; Lt_op; Le_op; Gt_op;
                  Ge_op; And_op; Or_op ]
          >>= fun op ->
          map2
            (fun lhs rhs -> Ast.Binop (op, lhs, rhs))
            (valid_expr env (depth - 1))
            (valid_expr env (depth - 1)) );
        ( 1,
          (* division and modulus by a non-zero literal only *)
          oneofl Ast.[ Div_op; Mod_op ] >>= fun op ->
          map2
            (fun lhs d -> Ast.Binop (op, lhs, Ast.Num d))
            (valid_expr env (depth - 1))
            (oneof [ int_range 1 9; int_range (-9) (-1) ]) );
        (1, map (fun e -> Ast.Unop (Ast.Neg_op, e)) (valid_expr env (depth - 1)));
        (1, map (fun e -> Ast.Unop (Ast.Not_op, e)) (valid_expr env (depth - 1)));
      ]
  in
  frequency (base @ arrays @ calls @ compound)

(* An index expression guaranteed to lie in [0, size): either a literal or
   an arbitrary expression clamped by [mod] and made non-negative.  The
   clamp uses only constructs whose semantics agree across engines. *)
and safe_index env size =
  frequency
    [
      (3, map (fun i -> Ast.Num i) (int_range 0 (size - 1)));
      ( 1,
        map
          (fun e ->
            (* ((e mod size) + size) mod size *)
            Ast.Binop
              ( Ast.Mod_op,
                Ast.Binop
                  ( Ast.Add_op,
                    Ast.Binop (Ast.Mod_op, e, Ast.Num size),
                    Ast.Num size ),
                Ast.Num size ))
          (valid_expr env 1) );
    ]

let rec valid_stmt env depth =
  let assigns =
    match env.scalars with
    | [] -> []
    | scalars ->
        [
          ( 4,
            map2 (fun v e -> Ast.Assign (v, e)) (oneofl scalars)
              (valid_expr env 2) );
        ]
  in
  let array_writes =
    match env.arrays with
    | [] -> []
    | arrays ->
        [
          ( 2,
            oneofl arrays >>= fun (name, size) ->
            map2
              (fun i e -> Ast.Assign_sub (name, i, e))
              (safe_index env size) (valid_expr env 2) );
        ]
  in
  let io =
    [
      (2, map (fun e -> Ast.Print e) (valid_expr env 2));
      ( 1,
        (* printc needs [0,255]: clamp with mod 256 of a non-negative value *)
        map
          (fun e ->
            Ast.Printc
              (Ast.Binop
                 ( Ast.Mod_op,
                   Ast.Binop
                     ( Ast.Add_op,
                       Ast.Binop (Ast.Mod_op, e, Ast.Num 256),
                       Ast.Num 256 ),
                   Ast.Num 256 )))
          (valid_expr env 1) );
      (1, map (fun s -> Ast.Write s) (oneofl [ "out: "; "#"; "\n---\n" ]));
    ]
  in
  let calls =
    if depth <= 0 then []
    else
      match env.procs with
      | [] -> []
      | procs ->
          [
            ( 1,
              oneofl procs >>= fun (name, arity) ->
              map
                (fun args -> Ast.Call_stmt (name, args))
                (flatten_l (List.init arity (fun _ -> valid_expr env 1))) );
          ]
  in
  let compound =
    if depth <= 0 then []
    else
      [
        ( 2,
          map3
            (fun c t e -> Ast.If (c, t, e))
            (valid_expr env 2)
            (valid_stmt env (depth - 1))
            (opt (valid_stmt env (depth - 1))) );
        ( 2,
          (* bounded for loop over a fresh loop variable *)
          let v = fresh_name env "i" in
          int_range 0 3 >>= fun start ->
          int_range 0 5 >>= fun span ->
          oneofl [ Ast.Upto; Ast.Downto ] >>= fun dir ->
          let lo, hi =
            match dir with
            | Ast.Upto -> (start, start + span)
            | Ast.Downto -> (start + span, start)
          in
          let inner =
            { env with loop_vars = v :: env.loop_vars }
          in
          map
            (fun body ->
              Ast.Block
                {
                  Ast.decls = [ Ast.Var_decl (v, None) ];
                  stmts = [ Ast.For (v, Ast.Num lo, dir, Ast.Num hi, body) ];
                })
            (valid_stmt inner (depth - 1)) );
        (1, map (fun b -> Ast.Block b) (valid_block env (depth - 1) ~allow_procs:false));
      ]
  in
  frequency (assigns @ array_writes @ io @ calls @ compound)

and valid_block env depth ~allow_procs =
  int_range 0 2 >>= fun n_scalars ->
  (if List.length env.arrays < 2 then int_range 0 1 else return 0)
  >>= fun n_arrays ->
  let scalar_names = List.init n_scalars (fun _ -> fresh_name env "v") in
  (match n_arrays with
  | 0 -> return []
  | _ ->
      map
        (fun size -> [ (fresh_name env "arr", size) ])
        (int_range 2 12))
  >>= fun array_decls ->
  let env1 =
    {
      env with
      scalars = scalar_names @ env.scalars;
      arrays = array_decls @ env.arrays;
    }
  in
  (* optionally declare a procedure usable by the rest of the block *)
  (if allow_procs && depth > 0 then
     bool >>= fun declare ->
     if not declare then return (env1, [])
     else
       int_range 0 2 >>= fun arity ->
       let name = fresh_name env "p" in
       let params = List.init arity (fun k -> Printf.sprintf "%s_a%d" name k) in
       let proc_env =
         {
           env1 with
           scalars = params;
           loop_vars = [];
           arrays = [];
           procs = (name, arity) :: env1.procs;
         }
       in
       map
         (fun body ->
           ( { env1 with procs = (name, arity) :: env1.procs },
             [ Ast.Proc_decl (name, params, body) ] ))
         (valid_proc_body proc_env (depth - 1))
   else return (env1, []))
  >>= fun (env2, proc_decls) ->
  (* Every local is defined before any read: Algol 60 leaves a block's
     locals undefined on entry, and the compiled DIR code does not
     zero-fill them (neither scalars nor arrays), so a block re-entered
     in a loop sees the previous pass's values where the tree
     interpreter sees zeros.  Scalars always get an initialiser; arrays
     are zero-filled by a loop ahead of the block's statements. *)
  let zero_fills =
    List.map
      (fun (a, n) ->
        let z = fresh_name env "z" in
        Ast.Block
          {
            Ast.decls = [ Ast.Var_decl (z, None) ];
            stmts =
              [
                Ast.For
                  ( z,
                    Ast.Num 0,
                    Ast.Upto,
                    Ast.Num (n - 1),
                    Ast.Assign_sub (a, Ast.Var z, Ast.Num 0) );
              ];
          })
      array_decls
  in
  map2
    (fun inits stmts ->
      let var_decls =
        List.map2 (fun v init -> Ast.Var_decl (v, Some init)) scalar_names inits
      in
      let arr_decls = List.map (fun (a, n) -> Ast.Array_decl (a, n)) array_decls in
      { Ast.decls = var_decls @ arr_decls @ proc_decls; stmts = zero_fills @ stmts })
    (flatten_l
       (List.map (fun _ -> map (fun n -> Ast.Num n) (int_range 0 20)) scalar_names))
    (list_size (int_range 1 3) (valid_stmt env2 depth))

and valid_proc_body env depth =
  map2
    (fun block ret ->
      { block with Ast.stmts = block.Ast.stmts @ [ Ast.Return (Some ret) ] })
    (valid_block env depth ~allow_procs:false)
    (valid_expr env 1)

let valid_program_gen =
  sized_size (int_range 1 4) (fun depth ->
      let env =
        { scalars = []; loop_vars = []; arrays = []; procs = []; fresh = ref 0 }
      in
      map
        (fun body -> { Ast.name = "<gen-valid>"; body })
        (valid_block env depth ~allow_procs:true))

let valid_program =
  QCheck.make ~print:(fun p -> Pretty.to_string p) valid_program_gen
