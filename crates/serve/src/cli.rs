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
use crate::request::{self, DesignSpec, RunOptions};
use crate::server::{Bind, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use veloct::{default_candidates, Masking, Veloct, VeloctConfig};

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
                Ok(n) => match request::default_threads(n) {
                    Ok(_) => config.threads = n,
                    Err(msg) => {
                        eprintln!("--{msg}");
                        serve_usage();
                    }
                },
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
        "learn" | "verify" => match learn_fields(rest) {
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

/// The fields of a learn/verify frame from `connect` flags. The design is
/// read by [`DesignSpec`], exactly as the daemon will read it, and sent
/// with every default spelled out; the job and run fields go through
/// unchecked, so the daemon is their only judge. The design file, if any,
/// is inlined: the daemon never touches the client's filesystem.
fn learn_fields(argv: &[String]) -> Result<Vec<(&'static str, Json)>, String> {
    let mut design = BTreeMap::new();
    let mut fields = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if design_flag(&mut design, flag, &mut it)? {
            continue;
        }
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--name" => {
                design.insert("name".to_string(), Json::Str(val()?));
            }
            "--safe" => {
                let s = val()?;
                let spec = if s == "alu" || s == "default" {
                    Json::Str(s)
                } else {
                    Json::Arr(s.split(',').map(|m| Json::Str(m.to_string())).collect())
                };
                fields.push(("safe", spec));
            }
            "--pairs" => fields.push(("pairs", wire_int(val()?))),
            "--seed" => fields.push(("seed", wire_int(val()?))),
            "--threads" => fields.push(("threads", wire_int(val()?))),
            "--impl-predicates" => fields.push(("impl_predicates", Json::Bool(true))),
            "--certify" => fields.push(("certify", Json::Bool(true))),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let spec = DesignSpec::from_json(&Json::Obj(design)).map_err(|(_, msg)| flag_error(&msg))?;
    fields.insert(0, ("design", spec.to_json()));
    Ok(fields)
}

/// Reads `flag` into `design`, the `design` object of a learn frame
/// (SERVE.md §3.2), if it is one of the design flags batch mode and
/// `connect` share: each sets the field its name spells (`--max-latency`
/// sets `max_latency`, `--observable` appends to `observables`), and
/// `--design` inlines the file as `btor2`. `Ok(false)`: not a design flag.
fn design_flag<'a>(
    design: &mut BTreeMap<String, Json>,
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<bool, String> {
    let mut val = || {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let (key, value) = match flag {
        "--builtin" => ("builtin", Json::Str(val()?)),
        "--design" => {
            let path = val()?;
            let src = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            ("btor2", Json::Str(src))
        }
        "--instr-input" => ("instr_input", Json::Str(val()?)),
        "--observable" => ("observables", Json::Str(val()?)),
        "--secret-reg" => ("secret_regs", Json::Str(val()?)),
        "--mask" => {
            let spec = val()?;
            let (valid, fields) = spec
                .split_once('=')
                .ok_or("--mask takes VALID=FIELD[,FIELD...]")?;
            let fields = fields.split(',').map(|f| Json::Str(f.to_string()));
            let rule = vec![Json::Str(valid.to_string()), Json::Arr(fields.collect())];
            ("masks", Json::Arr(rule))
        }
        "--xlen" => ("xlen", wire_int(val()?)),
        "--max-latency" => ("max_latency", wire_int(val()?)),
        _ => return Ok(false),
    };
    if matches!(key, "observables" | "secret_regs" | "masks") {
        let list = design
            .entry(key.to_string())
            .or_insert(Json::Arr(Vec::new()));
        if let Json::Arr(items) = list {
            items.push(value);
        }
    } else {
        design.insert(key.to_string(), value);
    }
    Ok(true)
}

/// A numeric flag value as a frame carries it. Anything else goes as the
/// string it is, for the request checks to refuse by name.
fn wire_int(value: String) -> Json {
    value.parse().map_or(Json::Str(value), Json::Int)
}

/// Speaks a refused field in flag terms: the request checks name the field
/// first (`design.max_latency must be …`), and a flag is its field's key
/// with dashes (`--max-latency must be …`).
fn flag_error(msg: &str) -> String {
    let (field, rest) = msg.split_once(' ').unwrap_or((msg, ""));
    match field
        .strip_prefix("design.")
        .or((field == "threads").then_some(field))
    {
        Some(key) => format!("--{} {rest}", key.replace('_', "-")),
        None => msg.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Batch mode (the original veloct CLI)
// ---------------------------------------------------------------------------

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

/// Prints `msg` and the usage text, and exits 2.
fn batch_refuse(msg: &str) -> ! {
    eprintln!("{msg}");
    batch_usage()
}

fn batch_main() -> ExitCode {
    // HH_TRACE=<path.json> captures a Chrome trace of the run; see
    // docs/TRACE_SCHEMA.md for the span/counter vocabulary.
    let tracing = hh_trace::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut design = BTreeMap::from([("name".to_string(), Json::Str("batch".to_string()))]);
    let mut run = Vec::new();
    let mut masking = Masking::Mask;
    let mut certify: Option<String> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match design_flag(&mut design, flag, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(msg) => batch_refuse(&msg),
        }
        let mut val = || it.next().cloned().unwrap_or_else(|| batch_usage());
        match flag.as_str() {
            "--threads" => run.push(("threads", wire_int(val()))),
            "--impl-predicates" => masking = Masking::Impl,
            "--certify" => certify = Some(val()),
            "--help" | "-h" => batch_usage(),
            other => batch_refuse(&format!("unknown argument: {other}")),
        }
    }
    let RunOptions { threads, .. } = RunOptions::from_json(&Json::obj(run), 1, false)
        .unwrap_or_else(|(_, msg)| batch_refuse(&flag_error(&msg)));
    let spec = DesignSpec::from_json(&Json::Obj(design))
        .unwrap_or_else(|(_, msg)| batch_refuse(&flag_error(&msg)));
    let design = match spec.build() {
        Ok(d) => d,
        Err((_, e)) => {
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
        threads,
        pairs_per_instr: 1,
        masking,
        certify: certify.is_some(),
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
                 largest session {:.2} MB | \
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
            match &certify {
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
                                threads,
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
