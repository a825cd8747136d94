//! The `veloct` command-line tool: batch safe-set synthesis (the original
//! mode), `veloct serve` (the warm daemon) and `veloct connect` (the
//! client).
//!
//! ```text
//! veloct serve   [--bind 127.0.0.1:7411 | --socket /run/veloct.sock]
//!                [--state-dir DIR] [--threads N] [--checkpoint-every N]
//! veloct connect [addr|socket-path] <op> [op options]   # default 127.0.0.1:7411
//! veloct --builtin rocketlite ...            # batch mode, as before
//! ```
//!
//! See `docs/SERVE.md` for the protocol and `docs/PRODUCTION.md` for
//! deployment guidance.

use crate::client::Client;
use crate::json::Json;
use crate::server::{Bind, Server, ServerConfig};
use crate::state::{DesignSource, DesignSpec, BUILTIN_XLEN, MAX_LATENCY, MAX_THREADS};
use hh_uarch::Design;
use std::path::PathBuf;
use std::process::ExitCode;
use veloct::{default_candidates, Veloct, VeloctConfig};

/// CLI entry point: dispatches `serve` / `connect` subcommands, otherwise
/// runs the batch pipeline.
pub fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            argv.remove(0);
            serve_main(&argv)
        }
        Some("connect") => {
            argv.remove(0);
            connect_main(&argv)
        }
        _ => batch_main(),
    }
}

// ---------------------------------------------------------------------------
// veloct serve
// ---------------------------------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage: veloct serve [--bind HOST:PORT | --socket PATH]\n\
         \x20                  [--state-dir DIR] [--threads N] [--checkpoint-every N]"
    );
    std::process::exit(2);
}

fn serve_main(argv: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let val = |it: &mut dyn Iterator<Item = &String>| {
            it.next().cloned().unwrap_or_else(|| serve_usage())
        };
        match a.as_str() {
            "--bind" => config.bind = Bind::Tcp(val(&mut it)),
            "--socket" => config.bind = Bind::Unix(PathBuf::from(val(&mut it))),
            "--state-dir" => config.state_dir = Some(PathBuf::from(val(&mut it))),
            "--threads" => match val(&mut it).parse() {
                Ok(n) if n <= MAX_THREADS => config.threads = n,
                Ok(_) => {
                    eprintln!("--threads must be in 0..={MAX_THREADS} (0 = all cores)");
                    serve_usage();
                }
                Err(_) => serve_usage(),
            },
            "--checkpoint-every" => match val(&mut it).parse() {
                Ok(n) => config.checkpoint_every = n,
                Err(_) => serve_usage(),
            },
            _ => serve_usage(),
        }
    }
    let tracing = hh_trace::init_from_env();
    let (server, notes) = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for n in &notes {
        eprintln!("serve: {n}");
    }
    if let Some(addr) = server.local_addr() {
        println!("veloct serve: listening on {addr}");
    } else {
        println!("veloct serve: listening");
    }
    let result = server.run();
    if tracing {
        if let Err(e) = hh_trace::finish_to_env() {
            eprintln!("failed to write trace: {e}");
        }
    }
    match result {
        Ok(c) => {
            println!(
                "veloct serve: stopped after {} request(s), {} warm hit(s), {} checkpoint(s)",
                c.requests, c.warm_hits, c.checkpoints
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// veloct connect
// ---------------------------------------------------------------------------

fn connect_usage() -> ! {
    eprintln!(
        "usage: veloct connect [<addr|socket>] <op> [options]\n\
         \x20 default address: 127.0.0.1:7411\n\
         \x20 ops:\n\
         \x20   status | checkpoint | shutdown\n\
         \x20   flush  [--scope memo|all] [--design NAME]\n\
         \x20   learn|verify --name NAME (--builtin KIND | --design FILE.btor2\n\
         \x20       --instr-input NAME --observable S... --secret-reg S...\n\
         \x20       [--mask VALID=FIELD[,FIELD...]]... [--max-latency N])\n\
         \x20       [--xlen N] [--safe alu|default|M1,M2,...] [--pairs N]\n\
         \x20       [--seed N] [--threads N] [--impl-predicates] [--certify]"
    );
    std::process::exit(2);
}

const CONNECT_OPS: [&str; 6] = [
    "learn",
    "verify",
    "status",
    "flush",
    "checkpoint",
    "shutdown",
];

fn connect_main(argv: &[String]) -> ExitCode {
    // The address is optional: when the first argument is already an op
    // name, talk to the default serve address.
    let (addr, op, rest): (&str, &str, &[String]) = match argv.first().map(String::as_str) {
        Some(first) if CONNECT_OPS.contains(&first) => ("127.0.0.1:7411", first, &argv[1..]),
        Some(addr) if argv.len() >= 2 => (addr, argv[1].as_str(), &argv[2..]),
        _ => connect_usage(),
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match op {
        "status" => client.status(),
        "checkpoint" => client.checkpoint(),
        "shutdown" => client.shutdown(),
        "flush" => {
            let mut scope = "memo".to_string();
            let mut design = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scope" => scope = it.next().cloned().unwrap_or_else(|| connect_usage()),
                    "--design" => {
                        design = Some(it.next().cloned().unwrap_or_else(|| connect_usage()))
                    }
                    _ => connect_usage(),
                }
            }
            client.flush(&scope, design.as_deref())
        }
        "learn" | "verify" => match build_learn_request(rest) {
            Ok(fields) => client.request(op, fields),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        _ => connect_usage(),
    };
    match result {
        Ok(resp) => {
            println!("{resp}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the learn/verify request payload from `connect` flags. The design
/// file, if any, is inlined into the request — the daemon never touches the
/// client's filesystem.
fn build_learn_request(argv: &[String]) -> Result<Vec<(&'static str, Json)>, String> {
    let mut name = None;
    let mut builtin = None;
    let mut design_path: Option<String> = None;
    let mut instr_input = None;
    let mut observables = Vec::new();
    let mut secret_regs = Vec::new();
    let mut masks: Vec<Json> = Vec::new();
    let mut xlen: Option<i64> = None;
    let mut max_latency: Option<i64> = None;
    let mut safe: Option<String> = None;
    let mut pairs: Option<i64> = None;
    let mut seed: Option<i64> = None;
    let mut threads: Option<i64> = None;
    let mut impl_predicates = false;
    let mut certify = false;

    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--name" => name = Some(val()?),
            "--builtin" => builtin = Some(val()?),
            "--design" => design_path = Some(val()?),
            "--instr-input" => instr_input = Some(val()?),
            "--observable" => observables.push(Json::Str(val()?)),
            "--secret-reg" => secret_regs.push(Json::Str(val()?)),
            "--mask" => {
                let spec = val()?;
                let (valid, fields) = spec
                    .split_once('=')
                    .ok_or("--mask takes VALID=FIELD[,FIELD...]")?;
                masks.push(Json::Arr(vec![
                    Json::Str(valid.to_string()),
                    Json::Arr(
                        fields
                            .split(',')
                            .map(|f| Json::Str(f.to_string()))
                            .collect(),
                    ),
                ]));
            }
            "--xlen" => xlen = Some(val()?.parse().map_err(|_| "--xlen takes a number")?),
            "--max-latency" => {
                max_latency = Some(val()?.parse().map_err(|_| "--max-latency takes a number")?)
            }
            "--safe" => safe = Some(val()?),
            "--pairs" => pairs = Some(val()?.parse().map_err(|_| "--pairs takes a number")?),
            "--seed" => seed = Some(val()?.parse().map_err(|_| "--seed takes a number")?),
            "--threads" => threads = Some(val()?.parse().map_err(|_| "--threads takes a number")?),
            "--impl-predicates" => impl_predicates = true,
            "--certify" => certify = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }

    let name = name.ok_or("--name is required")?;
    let mut design = vec![("name", Json::Str(name))];
    if let Some(b) = builtin {
        design.push(("builtin", Json::Str(b)));
    } else if let Some(path) = design_path {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        design.push(("btor2", Json::Str(src)));
        design.push((
            "instr_input",
            Json::Str(instr_input.ok_or("--instr-input is required for a btor2 design")?),
        ));
        design.push(("observables", Json::Arr(observables)));
        design.push(("secret_regs", Json::Arr(secret_regs)));
        design.push(("masks", Json::Arr(masks)));
        if let Some(l) = max_latency {
            design.push(("max_latency", Json::Int(l)));
        }
    } else {
        return Err("either --builtin or --design is required".to_string());
    }
    if let Some(x) = xlen {
        design.push(("xlen", Json::Int(x)));
    }

    let mut fields = vec![("design", Json::obj(design))];
    if let Some(s) = safe {
        let spec = if s == "alu" || s == "default" {
            Json::Str(s)
        } else {
            Json::Arr(s.split(',').map(|m| Json::Str(m.to_string())).collect())
        };
        fields.push(("safe", spec));
    }
    if let Some(p) = pairs {
        fields.push(("pairs", Json::Int(p)));
    }
    if let Some(s) = seed {
        fields.push(("seed", Json::Int(s)));
    }
    if let Some(t) = threads {
        fields.push(("threads", Json::Int(t)));
    }
    if impl_predicates {
        fields.push(("impl_predicates", Json::Bool(true)));
    }
    if certify {
        fields.push(("certify", Json::Bool(true)));
    }
    Ok(fields)
}

// ---------------------------------------------------------------------------
// Batch mode (the original veloct CLI)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct BatchArgs {
    design_path: Option<String>,
    builtin: Option<String>,
    instr_input: Option<String>,
    observables: Vec<String>,
    secret_regs: Vec<String>,
    masks: Vec<(String, Vec<String>)>,
    xlen: u32,
    max_latency: usize,
    threads: usize,
    impl_predicates: bool,
    certify: Option<String>,
}

fn batch_usage() -> ! {
    eprintln!(
        "usage: veloct --builtin <rocketlite|boom-small|boom-medium|boom-large|boom-mega>\n\
         \x20      | veloct --design <file.btor2> --instr-input <name>\n\
         \x20               --observable <state>... --secret-reg <state>...\n\
         \x20               [--mask <valid>=<field>[,<field>...]]...\n\
         \x20               [--xlen N] [--max-latency N]\n\
         \x20      common: [--threads N] [--impl-predicates] [--certify <dir>]\n\
         \x20      daemon: veloct serve --help | veloct connect --help"
    );
    std::process::exit(2);
}

fn parse_batch_args() -> BatchArgs {
    let mut args = BatchArgs {
        xlen: 16,
        max_latency: 24,
        threads: 1,
        ..BatchArgs::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let val = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| batch_usage());
        match a.as_str() {
            "--design" => args.design_path = Some(val(&mut it)),
            "--builtin" => args.builtin = Some(val(&mut it)),
            "--instr-input" => args.instr_input = Some(val(&mut it)),
            "--observable" => args.observables.push(val(&mut it)),
            "--secret-reg" => args.secret_regs.push(val(&mut it)),
            "--mask" => {
                let spec = val(&mut it);
                let (valid, fields) = spec.split_once('=').unwrap_or_else(|| batch_usage());
                args.masks.push((
                    valid.to_string(),
                    fields.split(',').map(|s| s.to_string()).collect(),
                ));
            }
            "--xlen" => args.xlen = val(&mut it).parse().unwrap_or_else(|_| batch_usage()),
            "--max-latency" => {
                args.max_latency = val(&mut it).parse().unwrap_or_else(|_| batch_usage())
            }
            "--threads" => args.threads = val(&mut it).parse().unwrap_or_else(|_| batch_usage()),
            "--impl-predicates" => args.impl_predicates = true,
            "--certify" => args.certify = Some(val(&mut it)),
            "--help" | "-h" => batch_usage(),
            other => {
                eprintln!("unknown argument: {other}");
                batch_usage();
            }
        }
    }
    if !(1..=MAX_THREADS).contains(&args.threads) {
        eprintln!("--threads must be in 1..={MAX_THREADS}");
        batch_usage();
    }
    if args.max_latency > MAX_LATENCY {
        eprintln!("--max-latency must be at most {MAX_LATENCY}");
        batch_usage();
    }
    if args.builtin.is_some() && !BUILTIN_XLEN.contains(&args.xlen) {
        eprintln!("--xlen must be in {BUILTIN_XLEN:?} for a builtin design");
        batch_usage();
    }
    args
}

/// The batch design, built and checked exactly as a daemon `learn` frame's
/// would be.
fn load_design(args: &BatchArgs) -> Result<Design, String> {
    let source = match &args.builtin {
        Some(kind) => DesignSource::Builtin {
            kind: kind.clone(),
            xlen: args.xlen,
            scale: 1,
        },
        None => {
            let path = args
                .design_path
                .as_ref()
                .ok_or("missing --design or --builtin")?;
            DesignSource::Btor2 {
                src: std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
                instr_input: (args.instr_input.clone())
                    .ok_or("missing --instr-input for a btor2 design")?,
                observables: args.observables.clone(),
                secret_regs: args.secret_regs.clone(),
                masks: args.masks.clone(),
                xlen: args.xlen,
                max_latency: args.max_latency,
                example_depth: 0,
            }
        }
    };
    let spec = DesignSpec {
        name: "batch".to_string(),
        source,
    };
    spec.build().map_err(|(_, msg)| msg)
}

fn batch_main() -> ExitCode {
    // HH_TRACE=<path.json> captures a Chrome trace of the run; see
    // docs/TRACE_SCHEMA.md for the span/counter vocabulary.
    let tracing = hh_trace::init_from_env();
    let args = parse_batch_args();
    let design = match load_design(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "design: {} — {} state bits, {} state elements, {} inputs",
        design.netlist.name(),
        design.state_bits(),
        design.netlist.num_states(),
        design.netlist.num_inputs()
    );

    let config = VeloctConfig {
        threads: args.threads,
        pairs_per_instr: 1,
        impl_predicates: args.impl_predicates,
        certify: args.certify.is_some(),
        ..VeloctConfig::default()
    };
    let veloct = Veloct::with_config(&design, config);
    let t0 = std::time::Instant::now();
    let report = veloct.classify(&default_candidates());
    let elapsed = t0.elapsed();

    println!(
        "\nverified safe instruction set ({} instructions):",
        report.safe.len()
    );
    let names: Vec<&str> = report.safe.iter().map(|m| m.name()).collect();
    println!("  {}", names.join(", "));
    if !report.rejected.is_empty() {
        println!("excluded:");
        for (m, why) in &report.rejected {
            println!("  {:8} {:?}", m.name(), why);
        }
    }
    let code = match &report.invariant {
        Some(inv) => {
            println!(
                "\ninvariant: {} predicates | {} tasks | {} backtracks | {} SMT queries | \
                 sessions {:.1} MB | \
                 {elapsed:.2?} (final run: examples {:.2?}, mine {:.2?}, learn {:.2?})",
                inv.len(),
                report.stats.num_tasks(),
                report.stats.counters.backtracks,
                report.stats.smt_queries,
                report.stats.counters.session_resident_bytes as f64 / 1e6,
                report.examples_time,
                report.mine_time,
                report.stats.wall_time
            );
            match &args.certify {
                None => ExitCode::SUCCESS,
                Some(dir) => {
                    let dir = std::path::Path::new(dir);
                    let emit_t0 = std::time::Instant::now();
                    match veloct.emit_certificate(&report.safe, inv, &report.solutions, dir) {
                        Ok(summary) => {
                            println!(
                                "certificate: {} obligations, {} proof lines, {} bytes \
                                 in {:.2?} on {} threads -> {}",
                                summary.obligations,
                                summary.proof_lines,
                                summary.proof_bytes,
                                emit_t0.elapsed(),
                                args.threads,
                                dir.display()
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("certificate emission failed: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
            }
        }
        None => {
            println!("\nno invariant learned for any candidate subset");
            ExitCode::FAILURE
        }
    };
    if tracing {
        match hh_trace::finish_to_env() {
            Ok(Some(path)) => println!("trace written to {path}"),
            Ok(None) => {}
            Err(e) => eprintln!("failed to write trace: {e}"),
        }
    }
    code
}
