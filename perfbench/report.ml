type better = Lower | Higher

type def = { name : string; unit_ : string; better : better }

let d name unit_ better = { name; unit_; better }

let end_to_end =
  [
    d "setup_s" "s" Lower;
    d "pass_s" "s" Lower;
    d "typical_ms" "ms" Lower;
    d "tail_ms" "ms" Lower;
    d "peak_rss_mb" "MB" Lower;
  ]

let experiment_ids =
  List.map
    (fun e -> e.Experiments.Registry.id)
    (Experiments.Registry.all @ Experiments.Registry.extensions)

let per_layer =
  [
    d "games.tabulate_s" "s" Lower;
    d "core.chain_build_s" "s" Lower;
    d "core.chain_nnz" "count" Lower;
    d "core.gibbs_s" "s" Lower;
    d "core.barrier_s" "s" Lower;
    d "markov.decompose_s" "s" Lower;
    d "markov.from_decomposition_s" "s" Lower;
    d "markov.csc_transpose_s" "s" Lower;
    d "markov.panel_sweep_s" "s" Lower;
    d "markov.panel_steps" "count" Lower;
    d "markov.panel_bytes" "B-computed" Lower;
  ]
  @ List.map (fun id -> d ("experiments." ^ id ^ "_s") "s" Lower) experiment_ids
  @ [
      d "store.hits" "count" Higher;
      d "store.misses" "count" Lower;
      d "store.writes" "count" Lower;
      d "store.bytes" "B" Lower;
      d "serve.service_ms" "ms" Lower;
      d "serve.queue_wait_ms" "ms-derived" Lower;
      d "serve.protocol_us" "us" Lower;
      d "serve.batches" "count" Lower;
      d "serve.max_batch" "count" Higher;
      d "serve.cache_hit_ratio" "ratio" Higher;
      d "daemon.lateness_ms" "ms" Lower;
      d "trace.overhead_pct" "%" Lower;
    ]

let info fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

let result ~correct ~attempted ~failed ~metrics defs =
  let field def =
    match List.assoc_opt def.name metrics with
    | Some v when Float.is_finite v ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" def.name v def.unit_
    | Some _ -> invalid_arg ("Report.result: non-finite " ^ def.name)
    | None -> invalid_arg ("Report.result: missing " ^ def.name)
  in
  let body = String.concat ", " (List.map field defs) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
