(* Ethainter-Kill as a standalone tool (§6.1).

   Spins up a private testnet fork, deploys the given contract(s), runs
   Ethainter, and attempts automated destruction of everything flagged
   with an accessible/tainted selfdestruct — confirming success from the
   post-state (the victim is no longer alive). *)

open Cmdliner
module U = Ethainter_word.Uint256
module T = Ethainter_chain.Testnet

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_deploy path =
  let content = read_file path in
  if Filename.check_suffix path ".sol" || Filename.check_suffix path ".msol"
  then Ethainter_minisol.Codegen.compile_source content
  else Ethainter_word.Hex.decode (String.trim content)

let run rounds files =
  let net = T.create ~name:"kill-fork" () in
  let deployer = T.account_of_seed "deployer" in
  let attacker = T.account_of_seed "attacker" in
  T.fund_account net deployer (U.of_string "0xffffffffffffffff");
  T.fund_account net attacker (U.of_string "0xffffffffffffffff");
  let targets =
    List.filter_map
      (fun file ->
        let r = T.deploy net ~from:deployer (load_deploy file) in
        match r.T.created with
        | None ->
            Printf.printf "%-40s deployment failed\n" file;
            None
        | Some addr ->
            let runtime = Ethainter_evm.State.code (T.state net) addr in
            let res =
              Ethainter_core.Scheduler.analyze_request
                (Ethainter_core.Pipeline.request
                   (Ethainter_core.Pipeline.Runtime runtime))
            in
            Printf.printf "%-40s deployed at %s, %d report(s)\n" file
              (U.to_hex addr)
              (List.length res.Ethainter_core.Pipeline.reports);
            Some (file, addr, res.Ethainter_core.Pipeline.reports))
      files
  in
  List.iter
    (fun (file, addr, reports) ->
      let a =
        Ethainter_kill.Kill.attack ~rounds net ~attacker ~victim:addr reports
      in
      Printf.printf "%-40s %s (%d txs)\n" file
        (Ethainter_kill.Kill.outcome_to_string a.Ethainter_kill.Kill.a_outcome)
        a.Ethainter_kill.Kill.a_txs_sent)
    targets

let () =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"CONTRACT"
         ~doc:"MiniSol sources or hex deployment bytecode files.")
  in
  let rounds =
    Arg.(value & opt int 4
         & info [ "rounds" ] ~doc:"Escalation rounds of selector sweeps.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "ethainter-kill" ~version:"1.0.0"
         ~doc:"automatically exploit selfdestruct vulnerabilities on a \
               private fork")
      Term.(const run $ rounds $ files)
  in
  exit (Cmd.eval cmd)
