(** Reproduction harness for every table and figure in §6.

    Each experiment returns structured results and prints a table with
    the same rows/series as the paper. Absolute numbers differ (our
    universe is a generated corpus on a simulator, not the 2019
    mainnet), but the shapes the paper argues from are reproduced: who
    wins, by what rough factor, and where each tool fails.

    Index (see DESIGN.md):
    - {!e1_kill} — §6.1 Experiment 1 (Ethainter-Kill on a Ropsten fork)
    - {!t1_flagged} — §6.2 flagged-percentage table (+ ETH held)
    - {!f6_precision} — Fig. 6 manual-inspection precision
    - {!s1_securify} — §6.2 Securify comparison
    - {!f7_securify2} — Fig. 7 Securify2 comparison
    - {!te_teether} — §6.2 teEther comparison
    - {!rq2_efficiency} — §6.3 analysis efficiency
    - {!f8_ablations} — Fig. 8 design-decision ablations *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module V = Ethainter_core.Vulns
module C = Ethainter_core.Config
module G = Ethainter_corpus.Generator
module Pat = Ethainter_corpus.Patterns
module T = Ethainter_chain.Testnet

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let hline = String.make 72 '-'

(* ------------------------------------------------------------------ *)
(* Shared: analyze a corpus once                                       *)
(* ------------------------------------------------------------------ *)

type analyzed = {
  inst : G.instance;
  result : P.result;
}

(* Every corpus sweep goes through the scheduler's worker pool as a
   batch of Pipeline.requests; result order (and content) is identical
   to the old sequential List.map. Because requests are the single
   keyable entry point, overlapping sweeps (t1/f6/f8 share generated
   contracts) hit the process-wide result cache. *)
let analyze_corpus ?(cfg = C.default) (corpus : G.instance list) : analyzed list =
  S.analyze_requests
    (List.map
       (fun (i : G.instance) -> P.request ~cfg (P.Runtime i.G.i_runtime))
       corpus)
  |> List.map2 (fun i result -> { inst = i; result }) corpus

let flags_kind (a : analyzed) k = P.flags a.result k

(* ------------------------------------------------------------------ *)
(* E1 — §6.1: automated end-to-end exploits on a Ropsten fork          *)
(* ------------------------------------------------------------------ *)

type e1_result = {
  e1_contracts : int;
  e1_flagged : int;
  e1_pinpointed : int;
  e1_destroyed : int;
  e1_destroyed_pct_of_flagged : float;
  e1_txs : int;
}

let e1_kill ?(size = 160) ?(seed = 1337) () : e1_result =
  let corpus = G.ropsten ~seed ~size () in
  (* a private fork of the testnet: deploy everything, then attack *)
  let net = T.create ~name:"ropsten-fork" () in
  let deployer = T.account_of_seed "deployer" in
  let attacker = T.account_of_seed "attacker" in
  T.fund_account net deployer (U.of_string "0xffffffffffffffffffffffff");
  T.fund_account net attacker (U.of_string "0xffffffffffffffffffffffff");
  let deployed =
    List.filter_map
      (fun (i : G.instance) ->
        let r = T.deploy net ~from:deployer i.G.i_deploy in
        match r.T.created with
        | Some addr ->
            T.fund_account net addr i.G.i_eth_held;
            Some (i, addr)
        | None -> None)
      corpus
  in
  let analyzed =
    S.analyze_corpus (List.map (fun ((i : G.instance), _) -> i.G.i_runtime) deployed)
    |> List.map2 (fun (i, addr) r -> (i, addr, r)) deployed
  in
  let flagged =
    List.filter
      (fun (_, _, r) ->
        P.flags r V.AccessibleSelfdestruct || P.flags r V.TaintedSelfdestruct)
      analyzed
  in
  let targets =
    List.map (fun (_, addr, r) -> (addr, r.P.reports)) flagged
  in
  let stats, _attempts =
    Ethainter_kill.Kill.campaign net ~attacker targets
  in
  { e1_contracts = List.length deployed;
    e1_flagged = List.length flagged;
    e1_pinpointed = stats.Ethainter_kill.Kill.pinpointed;
    e1_destroyed = stats.Ethainter_kill.Kill.destroyed;
    e1_destroyed_pct_of_flagged =
      pct stats.Ethainter_kill.Kill.destroyed (List.length flagged);
    e1_txs = stats.Ethainter_kill.Kill.total_txs }

let print_e1 (r : e1_result) =
  Printf.printf "%s\nE1 (§6.1): Ethainter-Kill on a private Ropsten fork\n%s\n" hline hline;
  Printf.printf "contracts deployed              %d\n" r.e1_contracts;
  Printf.printf "flagged (accessible/tainted sd) %d\n" r.e1_flagged;
  Printf.printf "vulnerability pinpointed        %d (rest: no public entry point)\n"
    r.e1_pinpointed;
  Printf.printf "destroyed (post-state)          %d (%.1f%% of flagged)\n"
    r.e1_destroyed r.e1_destroyed_pct_of_flagged;
  Printf.printf "transactions sent               %d\n" r.e1_txs;
  Printf.printf
    "paper shape: 805/4800 destroyed (16.7%% of flagged); a minority of\n\
     flags convert to fully-automated kills, but well above zero.\n"

(* ------------------------------------------------------------------ *)
(* T1 — §6.2: percentage of flagged contracts per vulnerability        *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_kind : V.kind;
  t1_count : int;
  t1_pct : float;
  t1_eth : U.t;
}

let t1_flagged ?(size = 600) ?(seed = 42) () : t1_row list * int =
  let corpus = G.mainnet ~seed ~size () in
  let analyzed = analyze_corpus corpus in
  let rows =
    List.map
      (fun k ->
        let hits = List.filter (fun a -> flags_kind a k) analyzed in
        let eth =
          List.fold_left (fun s a -> U.add s a.inst.G.i_eth_held) U.zero hits
        in
        { t1_kind = k; t1_count = List.length hits;
          t1_pct = pct (List.length hits) (List.length analyzed);
          t1_eth = eth })
      V.all_kinds
  in
  (rows, List.length analyzed)

let print_t1 (rows : t1_row list) (total : int) =
  Printf.printf "%s\nT1 (§6.2): flagged unique contracts, per vulnerability (n=%d)\n%s\n"
    hline total hline;
  Printf.printf "%-30s %10s %10s %16s\n" "Vulnerability" "Flagged" "Percent"
    "ETH held (wei)";
  List.iter
    (fun r ->
      Printf.printf "%-30s %10d %9.2f%% %16s\n" (V.kind_name r.t1_kind)
        r.t1_count r.t1_pct (U.to_decimal r.t1_eth))
    rows;
  Printf.printf
    "paper shape: accessible selfdestruct 1.2%%, tainted selfdestruct 0.17%%,\n\
     tainted owner 1.33%%, unchecked staticcall 0.04%%, tainted delegatecall 0.17%%.\n"

(* ------------------------------------------------------------------ *)
(* F6 — Fig. 6: manual inspection of a 40-contract random sample       *)
(* ------------------------------------------------------------------ *)

type f6_row = {
  f6_kind : V.kind;
  f6_tp : int;
  f6_total : int;
}

type f6_result = {
  f6_rows : f6_row list;
  f6_sample : int;
  f6_precision : float;
  f6_composite_tps : int;
}

(* Sample flagged contracts with verified source until every flagged
   category is represented — the paper's sampling procedure. *)
let f6_precision ?(size = 3600) ?(seed = 42) ?(sample = 40) () : f6_result =
  let corpus = G.mainnet ~seed ~size () in
  let analyzed = analyze_corpus corpus in
  let flagged =
    List.filter
      (fun a -> a.result.P.reports <> [] && a.inst.G.i_has_source)
      analyzed
  in
  (* lexicographic sort on the (hash-derived) name, as the paper sorts
     on addresses, then take a prefix as the "random" sample *)
  let sorted =
    List.sort
      (fun a b ->
        compare
          (Ethainter_crypto.Keccak.hash a.inst.G.i_name)
          (Ethainter_crypto.Keccak.hash b.inst.G.i_name))
      flagged
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  let sampled = take sample sorted in
  let rows =
    List.filter_map
      (fun k ->
        let hits = List.filter (fun a -> flags_kind a k) sampled in
        if hits = [] then None
        else
          let tp =
            List.length
              (List.filter (fun a -> G.truly_vulnerable a.inst k) hits)
          in
          Some { f6_kind = k; f6_tp = tp; f6_total = List.length hits })
      V.all_kinds
  in
  (* overall precision: a sampled contract counts as a true positive if
     every... the paper counts per-(contract,kind) warnings *)
  let warnings =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun k ->
            if flags_kind a k then Some (G.truly_vulnerable a.inst k)
            else None)
          V.all_kinds)
      sampled
  in
  let tps = List.length (List.filter (fun x -> x) warnings) in
  let composite_tps =
    List.length
      (List.filter
         (fun a ->
           a.inst.G.i_template.Pat.t_truth.Pat.composite
           && List.exists (fun k -> flags_kind a k && G.truly_vulnerable a.inst k)
                V.all_kinds)
         sampled)
  in
  { f6_rows = rows; f6_sample = List.length sampled;
    f6_precision = pct tps (List.length warnings);
    f6_composite_tps = composite_tps }

let print_f6 (r : f6_result) =
  Printf.printf "%s\nF6 (Fig. 6): manual inspection of %d sampled flagged contracts\n%s\n"
    hline r.f6_sample hline;
  List.iter
    (fun row ->
      Printf.printf "%-30s true positives: %d/%d\n" (V.kind_name row.f6_kind)
        row.f6_tp row.f6_total)
    r.f6_rows;
  Printf.printf "contracts exploitable only via composite tainting: %d\n"
    r.f6_composite_tps;
  Printf.printf "Total precision: %.1f%%   (paper: 82.5%%)\n" r.f6_precision

(* ------------------------------------------------------------------ *)
(* S1 — §6.2: Securify comparison                                      *)
(* ------------------------------------------------------------------ *)

type s1_result = {
  s1_universe : int;
  s1_flagged : int;
  s1_flag_rate : float;
  s1_uw_rate : float;   (** unrestricted-write flag rate *)
  s1_miv_rate : float;  (** missing-input-validation flag rate *)
  s1_sample : int;
  s1_tp : int;
  s1_avg_findings : float;
}

let s1_securify ?(size = 300) ?(seed = 42) ?(sample = 40) () : s1_result =
  let corpus = G.mainnet ~seed ~size () in
  let results =
    S.map
      (fun (i : G.instance) ->
        (i, Ethainter_baselines.Securify.analyze i.G.i_runtime))
      corpus
  in
  let flagged = List.filter (fun (_, r) -> r.Ethainter_baselines.Securify.flagged) results in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  let sampled = take sample flagged in
  (* A Securify violation is a true positive only if the contract has a
     real end-to-end vulnerability of a comparable kind (the paper's
     criterion: apparent end-to-end exploitability). *)
  let tp =
    List.length
      (List.filter
         (fun ((i : G.instance), _) ->
           i.G.i_template.Pat.t_truth.Pat.vulnerable <> [])
         sampled)
  in
  let total_findings =
    List.fold_left
      (fun n (_, r) ->
        n + List.length r.Ethainter_baselines.Securify.findings)
      0 flagged
  in
  let rate pat =
    pct
      (List.length
         (List.filter
            (fun (_, r) ->
              Ethainter_baselines.Securify.count_pattern r pat > 0)
            results))
      (List.length results)
  in
  { s1_universe = List.length results;
    s1_flagged = List.length flagged;
    s1_flag_rate = pct (List.length flagged) (List.length results);
    s1_uw_rate = rate "unrestricted-write";
    s1_miv_rate = rate "missing-input-validation";
    s1_sample = List.length sampled;
    s1_tp = tp;
    s1_avg_findings =
      (if flagged = [] then 0.0
       else float_of_int total_findings /. float_of_int (List.length flagged)) }

let print_s1 (r : s1_result) =
  Printf.printf "%s\nS1 (§6.2): Securify violation patterns\n%s\n" hline hline;
  Printf.printf "universe                        %d contracts\n" r.s1_universe;
  Printf.printf "flagged (any violation)         %d (%.1f%%)\n" r.s1_flagged
    r.s1_flag_rate;
  Printf.printf "  unrestricted write            %.1f%%\n" r.s1_uw_rate;
  Printf.printf "  missing input validation      %.1f%%\n" r.s1_miv_rate;
  Printf.printf "avg violations per flagged      %.1f\n" r.s1_avg_findings;
  Printf.printf "manually inspected sample       %d\n" r.s1_sample;
  Printf.printf "true positives in sample        %d (%.1f%%)\n" r.s1_tp
    (pct r.s1_tp r.s1_sample);
  Printf.printf
    "paper shape: 39.2%% flagged for these violations (75%% for any),\n\
     10+ violations per flagged contract, 0/40 true positives.\n"

(* ------------------------------------------------------------------ *)
(* F7 — Fig. 7: Securify2 comparison                                   *)
(* ------------------------------------------------------------------ *)

type f7_row = {
  f7_vuln : string;
  f7_s2_reports : int;
  f7_s2_tp : int;
  f7_eth_reports : int;
  f7_eth_tp : int;
}

type f7_result = {
  f7_universe : int;
  f7_s2_timeouts : int;
  f7_s2_not_applicable : int;
  f7_eth_timeouts : int;
  f7_rows : f7_row list;
}

let f7_securify2 ?(size = 400) ?(seed = 42) () : f7_result =
  let corpus = G.mainnet ~seed ~size () in
  (* universe: contracts with compatible verified source (the paper
     restricts to Solidity 0.5.8+ sources that produce analysis
     facts) *)
  let universe =
    List.filter (fun (i : G.instance) -> i.G.i_has_source) corpus
  in
  let s2 =
    S.map
      (fun i -> (i, Ethainter_baselines.Securify2.analyze (G.source_info i)))
      universe
  in
  let timeouts =
    List.length
      (List.filter
         (fun (_, o) -> o = Ethainter_baselines.Securify2.Timeout)
         s2)
  in
  let not_applicable =
    List.length
      (List.filter
         (fun (_, o) ->
           match o with
           | Ethainter_baselines.Securify2.NotApplicable _ -> true
           | _ -> false)
         s2)
  in
  let eth =
    S.analyze_corpus (List.map (fun (i : G.instance) -> i.G.i_runtime) universe)
    |> List.combine universe
  in
  let eth_timeouts =
    List.length (List.filter (fun (_, r) -> r.P.timed_out) eth)
  in
  let s2_flags i pat =
    match List.assoc_opt i (List.map (fun (i, o) -> (i, o)) s2) with
    | Some o -> Ethainter_baselines.Securify2.flags_pattern o pat
    | None -> false
  in
  let eth_flags i k =
    match List.assoc_opt i (List.map (fun (i, r) -> (i, r)) eth) with
    | Some r -> P.flags r k
    | None -> false
  in
  let row name pat kinds truth_kinds =
    let s2_hits = List.filter (fun (i, _) -> s2_flags i pat) s2 in
    let s2_tp =
      List.length
        (List.filter
           (fun ((i : G.instance), _) ->
             List.exists (fun k -> G.truly_vulnerable i k) truth_kinds)
           s2_hits)
    in
    let eth_hits =
      List.filter
        (fun ((i : G.instance), _) -> List.exists (fun k -> eth_flags i k) kinds)
        eth
    in
    let eth_tp =
      List.length
        (List.filter
           (fun ((i : G.instance), _) ->
             List.exists (fun k -> G.truly_vulnerable i k) truth_kinds)
           eth_hits)
    in
    { f7_vuln = name; f7_s2_reports = List.length s2_hits; f7_s2_tp = s2_tp;
      f7_eth_reports = List.length eth_hits; f7_eth_tp = eth_tp }
  in
  { f7_universe = List.length universe;
    f7_s2_timeouts = timeouts;
    f7_s2_not_applicable = not_applicable;
    f7_eth_timeouts = eth_timeouts;
    f7_rows =
      [ row "accessible selfdestruct" "UnrestrictedSelfdestruct"
          [ V.AccessibleSelfdestruct ] [ V.AccessibleSelfdestruct ];
        row "tainted owner var. / unr. write" "UnrestrictedWrite"
          [ V.TaintedOwnerVariable ] [ V.TaintedOwnerVariable ];
        row "tainted delegatecall" "UnrestrictedDelegateCall"
          [ V.TaintedDelegatecall ] [ V.TaintedDelegatecall ] ] }

let print_f7 (r : f7_result) =
  Printf.printf "%s\nF7 (Fig. 7): Securify2 vs Ethainter over %d source-available contracts\n%s\n"
    hline r.f7_universe hline;
  Printf.printf "%-34s %14s %14s\n" "" "Securify2" "Ethainter";
  Printf.printf "%-34s %14d %14d\n" "Timeout/failed-facts"
    (r.f7_s2_timeouts + r.f7_s2_not_applicable)
    r.f7_eth_timeouts;
  List.iter
    (fun row ->
      Printf.printf "%-34s %8d (TP %d) %8d (TP %d)\n" row.f7_vuln
        row.f7_s2_reports row.f7_s2_tp row.f7_eth_reports row.f7_eth_tp)
    r.f7_rows;
  Printf.printf
    "paper shape: Securify2 finds few selfdestructs (precise) but misses\n\
     delegatecall (inline assembly) and floods unrestricted-write (0 TP);\n\
     Ethainter reports more, with high precision, fewer timeouts.\n"

(* ------------------------------------------------------------------ *)
(* TE — §6.2: teEther comparison                                       *)
(* ------------------------------------------------------------------ *)

type te_result = {
  te_universe : int;
  te_teether_flags : int;
  te_overlap : int; (* teEther-flagged also flagged by Ethainter *)
  te_eth_flags : int;
  te_eth_only_sample : int; (* Ethainter-flagged checked against teEther *)
  te_teether_found_of_sample : int;
  te_teether_timeout_of_sample : int;
}

let te_teether ?(size = 300) ?(seed = 42) () : te_result =
  let corpus = G.mainnet ~seed ~size () in
  let eth =
    S.analyze_corpus (List.map (fun (i : G.instance) -> i.G.i_runtime) corpus)
    |> List.combine corpus
  in
  let te =
    S.map
      (fun (i : G.instance) ->
        (i, Ethainter_baselines.Teether.analyze i.G.i_runtime))
      corpus
  in
  let te_flagged =
    List.filter (fun (_, o) -> Ethainter_baselines.Teether.flagged o) te
  in
  let eth_flags_sd (i : G.instance) =
    match List.assoc_opt i (List.map (fun (i, r) -> (i, r)) eth) with
    | Some r -> P.flags r V.AccessibleSelfdestruct
    | None -> false
  in
  let overlap =
    List.length (List.filter (fun (i, _) -> eth_flags_sd i) te_flagged)
  in
  let eth_flagged =
    List.filter
      (fun ((_ : G.instance), r) -> P.flags r V.AccessibleSelfdestruct)
      eth
  in
  (* 20 hand-checked Ethainter flags, run through teEther *)
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  let sample = take 20 eth_flagged in
  let te_on_sample =
    List.map
      (fun ((i : G.instance), _) ->
        List.assoc i (List.map (fun (i, o) -> (i, o)) te))
      sample
  in
  { te_universe = List.length corpus;
    te_teether_flags = List.length te_flagged;
    te_overlap = overlap;
    te_eth_flags = List.length eth_flagged;
    te_eth_only_sample = List.length sample;
    te_teether_found_of_sample =
      List.length
        (List.filter Ethainter_baselines.Teether.flagged te_on_sample);
    te_teether_timeout_of_sample =
      List.length
        (List.filter
           (fun o -> o = Ethainter_baselines.Teether.ResourceExhausted)
           te_on_sample) }

let print_te (r : te_result) =
  Printf.printf "%s\nTE (§6.2): teEther (symbolic execution) vs Ethainter\n%s\n" hline hline;
  Printf.printf "universe                               %d\n" r.te_universe;
  Printf.printf "teEther exploit-synthesized flags      %d\n" r.te_teether_flags;
  Printf.printf "  of which also flagged by Ethainter   %d (%.0f%%)\n"
    r.te_overlap (pct r.te_overlap r.te_teether_flags);
  Printf.printf "Ethainter accessible-selfdestruct flags %d (%.1fx teEther)\n"
    r.te_eth_flags
    (if r.te_teether_flags = 0 then 0.0
     else float_of_int r.te_eth_flags /. float_of_int r.te_teether_flags);
  Printf.printf "Ethainter-flagged sample run through teEther: %d\n"
    r.te_eth_only_sample;
  Printf.printf "  teEther finds                        %d\n"
    r.te_teether_found_of_sample;
  Printf.printf "  teEther resource-exhausted           %d\n"
    r.te_teether_timeout_of_sample;
  Printf.printf
    "paper shape: Ethainter covers 77%% of teEther's flags and reports 6x\n\
     more overall; teEther misses composite (multi-transaction) cases.\n"

(* ------------------------------------------------------------------ *)
(* RQ2 — §6.3: efficiency                                              *)
(* ------------------------------------------------------------------ *)

type rq2_result = {
  rq2_contracts : int;
  rq2_tac_loc : int;
  rq2_total_s : float;
  rq2_avg_s : float;
  rq2_contracts_per_s : float;
}

let rq2_efficiency ?(size = 400) ?(seed = 7) () : rq2_result =
  let corpus = G.mainnet ~seed ~size () in
  let t0 = Unix.gettimeofday () in
  let results =
    S.analyze_corpus (List.map (fun (i : G.instance) -> i.G.i_runtime) corpus)
  in
  let dt = Unix.gettimeofday () -. t0 in
  let loc = List.fold_left (fun n r -> n + r.P.tac_loc) 0 results in
  { rq2_contracts = List.length corpus;
    rq2_tac_loc = loc;
    rq2_total_s = dt;
    rq2_avg_s = dt /. float_of_int (max 1 (List.length corpus));
    rq2_contracts_per_s = float_of_int (List.length corpus) /. dt }

let print_rq2 (r : rq2_result) =
  Printf.printf "%s\nRQ2 (§6.3): analysis efficiency\n%s\n" hline hline;
  Printf.printf "contracts analyzed        %d\n" r.rq2_contracts;
  Printf.printf "3-address code statements %d\n" r.rq2_tac_loc;
  Printf.printf "total wall-clock          %.2f s\n" r.rq2_total_s;
  Printf.printf "avg per contract          %.4f s\n" r.rq2_avg_s;
  Printf.printf "throughput                %.1f contracts/s\n" r.rq2_contracts_per_s;
  Printf.printf
    "paper shape: whole chain (240K contracts, 38 MLoC 3-address code) in\n\
     6 h at concurrency 45; average under 5 s per contract.\n"

(* ------------------------------------------------------------------ *)
(* F8 — Fig. 8: ablations                                              *)
(* ------------------------------------------------------------------ *)

type f8_row = {
  f8_kind : V.kind;
  f8_default : int;
  f8_ablated : int;
  f8_ratio : float;
}

let f8_ablation ~(cfg : C.t) ?(size = 600) ?(seed = 42) () : f8_row list =
  let corpus = G.mainnet ~seed ~size () in
  let base = analyze_corpus corpus in
  let abl = analyze_corpus ~cfg corpus in
  List.map
    (fun k ->
      let cb = List.length (List.filter (fun a -> flags_kind a k) base) in
      let ca = List.length (List.filter (fun a -> flags_kind a k) abl) in
      { f8_kind = k; f8_default = cb; f8_ablated = ca;
        f8_ratio =
          (if cb = 0 then if ca = 0 then 1.0 else float_of_int ca
           else float_of_int ca /. float_of_int cb) })
    [ V.TaintedSelfdestruct; V.TaintedOwnerVariable;
      V.UncheckedTaintedStaticcall; V.TaintedDelegatecall ]

let print_f8 title expectation rows =
  Printf.printf "%s\nF8 %s\n%s\n" hline title hline;
  Printf.printf "%-30s %9s %9s %8s\n" "Vulnerability" "default" "ablated" "ratio";
  List.iter
    (fun r ->
      Printf.printf "%-30s %9d %9d %8.2f\n" (V.kind_name r.f8_kind)
        r.f8_default r.f8_ablated r.f8_ratio)
    rows;
  Printf.printf "%s\n" expectation

let f8a ?size ?seed () = f8_ablation ~cfg:C.no_storage_model ?size ?seed ()
let f8b ?size ?seed () = f8_ablation ~cfg:C.no_guard_model ?size ?seed ()
let f8c ?size ?seed () = f8_ablation ~cfg:C.conservative ?size ?seed ()

let print_f8a rows =
  print_f8 "(Fig. 8a): No Storage Modeling (completeness drops)"
    "paper shape: ratios < 1 (0.44-0.75); tainted selfdestruct drops most."
    rows

let print_f8b rows =
  print_f8 "(Fig. 8b): No Guard Modeling (precision drops)"
    "paper shape: ratios >> 1 (up to 26x); tainted selfdestruct inflates most."
    rows

let print_f8c rows =
  print_f8 "(Fig. 8c): Conservative Storage Modeling (precision drops)"
    "paper shape: ratios > 1 (1.1-3.1x)."
    rows

(* ------------------------------------------------------------------ *)
(* Stream — the streaming-index scenario (beyond the paper's one-shot  *)
(* sweep): deploy/mutate/destroy contracts over N blocks against a     *)
(* live Index, then check the incremental view equals a cold batch     *)
(* sweep of the final chain state, and that the storage writes cost    *)
(* no analysis: one per deployment, no re-analysis, no front end rerun.*)
(* ------------------------------------------------------------------ *)

module Idx = Ethainter_index.Index
module Tel = Ethainter_core.Telemetry

type stream_result = {
  st_blocks : int;            (** blocks sealed (and processed) *)
  st_deployed : int;          (** contracts deployed, distinct bytecodes *)
  st_rotations : int;         (** admin-key rotations (guard-slot writes) *)
  st_noise_writes : int;      (** counter bumps (writes no guard reads) *)
  st_destroyed : int;         (** self-destructed contracts *)
  st_analyses : int;          (** analysis jobs completed *)
  st_reanalyses : int;        (** beyond each contract's first *)
  st_frontend_recomputes : int;
      (** front-end misses beyond one per distinct bytecode — 0 means
          the config-independent front end never reran *)
  st_mean_lag_blocks : float; (** deployment -> first verdict, in blocks *)
  st_incremental_eq_batch : bool;
  st_elapsed_s : float;
  st_blocks_per_s : float;
}

(* One template per contract with a distinct constant baked into the
   runtime (so bytecodes — and cache keys — never collide). The guards
   read only [owner] (slot 0): rotating it writes a guard slot, bumping
   [beacon] (slot 1) writes a slot no guard reads. Neither may cost an
   analysis. *)
let stream_source tag =
  Printf.sprintf
    {|contract Streamed {
  address owner;
  uint256 beacon;
  constructor() { owner = msg.sender; }
  function tag() public returns (uint256) { return %d; }
  function ping() public { beacon = beacon + 1; }
  function setOwner(address o) public {
    require(msg.sender == owner);
    owner = o;
  }
  function kill() public {
    require(msg.sender == owner);
    selfdestruct(owner);
  }
}|}
    tag

let stream ?(contracts = 16) ?(rotations = 24) ?(noise = 12) ?(kills = 3) ()
    : stream_result =
  let contracts = max 1 contracts and kills = min kills (max 0 (contracts - 1)) in
  let net = T.create ~name:"stream" () in
  let deployer = T.account_of_seed "stream-deployer" in
  T.fund_account net deployer (U.of_string "0xffffffffffffffffffffffff");
  (* deterministic accounting: this scenario's telemetry claims (one
     front end per bytecode, one back end per analysis) are against an
     empty cache, not whatever earlier experiments left behind *)
  P.cache_clear ();
  let tel0 = Tel.capture () in
  let pool = S.Pool.create () in
  let idx = Idx.create ~pool net in
  let t0 = Unix.gettimeofday () in
  (* phase 1: one deployment per block *)
  let owners = Array.make contracts deployer in
  let addrs =
    Array.init contracts (fun i ->
        let initcode =
          Ethainter_minisol.Codegen.compile_source (stream_source (1000 + i))
        in
        let r = T.deploy net ~from:deployer initcode in
        match r.T.created with
        | Some addr -> addr
        | None -> failwith "stream: deployment failed")
  in
  (* phase 2: guard-slot writes (owner rotations), then writes no guard
     reads (beacon bumps), one transaction per block *)
  for k = 0 to rotations - 1 do
    let i = k mod contracts in
    let next = T.account_of_seed (Printf.sprintf "stream-owner-%d" k) in
    T.fund_account net next (U.of_string "0xffffffff");
    let r =
      T.call_fn net ~from:owners.(i) ~to_:addrs.(i) "setOwner(address)" [ next ]
    in
    if not (T.succeeded r) then failwith "stream: rotation failed";
    owners.(i) <- next
  done;
  for k = 0 to noise - 1 do
    let i = k mod contracts in
    ignore (T.call_fn net ~from:deployer ~to_:addrs.(i) "ping()" [])
  done;
  (* phase 3: destroy the tail of the fleet *)
  for k = 0 to kills - 1 do
    let i = contracts - 1 - k in
    let r = T.call_fn net ~from:owners.(i) ~to_:addrs.(i) "kill()" [] in
    if not (T.succeeded r) then failwith "stream: kill failed"
  done;
  Idx.drain idx;
  let elapsed = Unix.gettimeofday () -. t0 in
  let st = Idx.stats idx in
  let get k = match List.assoc_opt k st with Some v -> v | None -> 0.0 in
  let d = Tel.diff (Tel.capture ()) tel0 in
  (* the differential: the incremental view against a cold batch sweep
     of what is live now (the cache makes the sweep instant, and both
     sides' contents are bitwise-comparable modulo wall-clock) *)
  let live = T.live_contracts net in
  let batch = S.analyze_corpus (List.map snd live) in
  let normalize (r : P.result) = { r with P.elapsed_s = 0.0 } in
  let incremental = Idx.contents idx in
  let eq =
    List.length incremental = List.length live
    && List.for_all2
         (fun (ia, ic, ir) ((la, lc), br) ->
           U.equal ia la && String.equal ic lc
           && normalize ir = normalize br)
         incremental
         (List.combine live batch)
  in
  Idx.detach idx;
  S.Pool.shutdown pool;
  let blocks = Idx.last_block idx in
  let fe_misses = d.Tel.cache_fe.Ethainter_core.Cache.misses in
  { st_blocks = blocks;
    st_deployed = contracts;
    st_rotations = rotations;
    st_noise_writes = noise;
    st_destroyed = kills;
    st_analyses = int_of_float (get "index_analyses");
    st_reanalyses = int_of_float (get "index_reanalyses");
    st_frontend_recomputes = fe_misses - contracts;
    st_mean_lag_blocks =
      (let n = get "index_lag_verdicts" in
       if n = 0.0 then 0.0 else get "index_lag_blocks_total" /. n);
    st_incremental_eq_batch = eq;
    st_elapsed_s = elapsed;
    st_blocks_per_s =
      (if elapsed > 0.0 then float_of_int blocks /. elapsed else 0.0) }

let print_stream (r : stream_result) =
  Printf.printf "%s\nStream: a streaming index over a mutating chain\n%s\n"
    hline hline;
  Printf.printf "blocks processed                %d (%.1f blocks/s)\n"
    r.st_blocks r.st_blocks_per_s;
  Printf.printf "contracts deployed / destroyed  %d / %d\n" r.st_deployed
    r.st_destroyed;
  Printf.printf
    "storage writes                  %d (%d owner rotations, %d beacon bumps)\n"
    (r.st_rotations + r.st_noise_writes) r.st_rotations r.st_noise_writes;
  Printf.printf "analyses                        %d (one per deployment)\n"
    r.st_analyses;
  Printf.printf "re-analyses                     %d (must be 0)\n"
    r.st_reanalyses;
  Printf.printf "front-end recomputations        %d (must be 0)\n"
    r.st_frontend_recomputes;
  Printf.printf "mean verdict lag                %.2f blocks\n"
    r.st_mean_lag_blocks;
  Printf.printf "incremental == batch            %b\n" r.st_incremental_eq_batch

(* ------------------------------------------------------------------ *)
(* Everything                                                          *)
(* ------------------------------------------------------------------ *)

let run_all ?(scale = 1.0) () =
  let sz f = max 40 (int_of_float (float_of_int f *. scale)) in
  let rows, total = t1_flagged ~size:(sz 600) () in
  print_t1 rows total;
  print_f6 (f6_precision ~size:(sz 3600) ());
  print_s1 (s1_securify ~size:(sz 300) ());
  print_f7 (f7_securify2 ~size:(sz 400) ());
  print_te (te_teether ~size:(sz 300) ());
  print_e1 (e1_kill ~size:(sz 160) ());
  print_rq2 (rq2_efficiency ~size:(sz 400) ());
  print_f8a (f8a ~size:(sz 600) ());
  print_f8b (f8b ~size:(sz 600) ());
  print_f8c (f8c ~size:(sz 600) ());
  (* last: the streaming scenario clears the analysis cache for its
     deterministic telemetry accounting *)
  print_stream (stream ())
