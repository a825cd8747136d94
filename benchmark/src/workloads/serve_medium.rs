//! `serve_medium` — the warm daemon, MediumBoomLite.
//!
//! One op is a full daemon life cycle over TCP loopback with one `Client`:
//! boot on a fresh state dir, cold `learn`, eight identical `learn`s (warm
//! hits), `flush` memo + `learn` (every cone replayed from the encode
//! cache), `checkpoint`, shutdown, boot from the state dir, `learn` (a
//! restored warm hit), shutdown. Same engine used differently: memo
//! seeding, encode-cache replay, pool/state persistence and JSON framing do
//! the work, fresh solving does little — and these paths fire on no other
//! workload.

use super::{Ctx, Workload};
use crate::pipeline::{self, Core, Examples, InvariantChecks, Problem};
use crate::samples::{timed, Samples};
use hh_serve::client::Client;
use hh_serve::json::Json;
use hh_serve::server::{Bind, Server, ServerConfig, ServerCounters};
use hh_uarch::boomlite::BoomVariant;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Identical warm `learn` requests per cycle (plus one restored warm hit).
const WARM_REQUESTS: usize = 8;

pub struct ServeMedium {
    state_bits: u64,
    problem: Problem,
    /// The invariant an in-process `Veloct::learn` computes for the same
    /// problem, as sorted wire strings: what every response must equal.
    reference: Vec<String>,
    scratch: PathBuf,
    cycles: usize,
}

impl ServeMedium {
    pub fn new(ctx: Ctx) -> Result<ServeMedium, String> {
        let core = if ctx.quick {
            Core::Rocket
        } else {
            Core::Boom(BoomVariant::Medium)
        };
        let problem = Problem {
            core,
            safe: core.expected()?.safe,
            pairs: 1,
            seed: ctx.seed,
            examples: Examples::Rich,
            threads: ctx.threads(2),
        };
        let design = core.build();
        // The reference answer, computed once in set-up and verified
        // monolithically like every other workload's invariant.
        let veloct = veloct::Veloct::with_config(&design, problem.veloct_config(false));
        let report = veloct.learn(&problem.safe);
        let invariant = report
            .invariant
            .ok_or("in-process reference learn found no invariant")?;
        let (miter, _) = veloct.build_miter(&problem.safe);
        let mut checks = InvariantChecks::default();
        checks.check(&invariant, &miter, &veloct.property(&miter))?;
        let reference = checks.verified().expect("just verified").to_vec();
        Ok(ServeMedium {
            state_bits: design.state_bits(),
            problem,
            reference,
            scratch: crate::scratch_dir("serve"),
            cycles: 0,
        })
    }

    /// The `learn` request of this workload: explicit Table 2 safe set, the
    /// benchmark seed, everything else protocol defaults.
    fn learn_fields(&self) -> Vec<(&'static str, Json)> {
        let safe = self
            .problem
            .safe
            .iter()
            .map(|m| Json::Str(m.name().to_string()))
            .collect();
        vec![
            (
                "design",
                Json::obj(vec![
                    ("name", Json::Str("bench".to_string())),
                    (
                        "builtin",
                        Json::Str(self.problem.core.serve_kind().to_string()),
                    ),
                ]),
            ),
            ("safe", Json::Arr(safe)),
            ("pairs", Json::Int(self.problem.pairs as i64)),
            ("seed", Json::Int(self.problem.seed as i64)),
            ("threads", Json::Int(self.problem.threads as i64)),
        ]
    }

    /// Sends one `learn` and checks the verdict: proved, and the invariant
    /// identical to the in-process reference.
    fn learn(&self, client: &mut Client) -> Result<Json, String> {
        let resp = client
            .request("learn", self.learn_fields())
            .map_err(|e| format!("learn request failed: {e}"))?;
        if resp.get("result").and_then(Json::as_str) != Some("proved") {
            return Err(format!("learn answered {:?}", resp.get("result")));
        }
        let invariant: Option<Vec<&str>> = resp
            .get("invariant")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect());
        let mut invariant = invariant.ok_or("learn response carries no invariant")?;
        invariant.sort_unstable();
        if invariant != self.reference {
            return Err(format!(
                "served invariant ({} predicates) differs from the in-process reference ({})",
                invariant.len(),
                self.reference.len()
            ));
        }
        Ok(resp)
    }

    /// A `learn` that must be answered from warm state alone.
    fn warm_learn(&self, client: &mut Client) -> Result<(), String> {
        let resp = self.learn(client)?;
        let warm = resp.get("warm_hit").and_then(Json::as_bool) == Some(true);
        let queries = resp.get("smt_queries").and_then(Json::as_i64);
        if !warm || queries != Some(0) {
            return Err(format!(
                "expected a warm hit with no SMT query, got warm_hit={warm} smt_queries={queries:?}"
            ));
        }
        Ok(())
    }
}

/// The daemon's accept loop on its own thread.
struct Accept {
    addr: String,
    /// Taken when the loop is joined.
    handle: Option<JoinHandle<std::io::Result<ServerCounters>>>,
}

/// An op that fails midway drops its daemon without `stop`: shut it down
/// here, so its thread and port do not outlive the op.
impl Drop for Accept {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        // The op's connection may be what broke: use a fresh one, and join
        // only a daemon that acknowledged, since any other never returns.
        let stopped = Client::connect_tcp(&self.addr).and_then(|mut c| c.shutdown());
        if stopped.is_ok() {
            let _ = handle.join();
        }
    }
}

struct Daemon {
    client: Client,
    accept: Accept,
}

/// Boots an in-process daemon on an ephemeral loopback port over
/// `state_dir` and connects the op's one client to it.
fn boot(state_dir: &Path, threads: usize) -> Result<Daemon, String> {
    let config = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        state_dir: Some(state_dir.to_path_buf()),
        threads,
        ..ServerConfig::default()
    };
    let (server, _notes) = Server::bind(config).map_err(|e| format!("daemon bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .ok_or("daemon has no TCP address")?
        .to_string();
    let accept = Accept {
        handle: Some(std::thread::spawn(move || server.run())),
        addr,
    };
    let client = Client::connect_tcp(&accept.addr).map_err(|e| format!("connect failed: {e}"))?;
    Ok(Daemon { client, accept })
}

impl Daemon {
    /// Orderly stop: `shutdown` (which checkpoints), then join the accept
    /// loop so no daemon thread outlives the op.
    fn stop(mut self) -> Result<ServerCounters, String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        let handle = self.accept.handle.take().expect("a daemon is stopped once");
        handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon accept loop failed: {e}"))
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn int(resp: &Json, key: &str) -> f64 {
    resp.get(key).and_then(Json::as_i64).unwrap_or(0) as f64
}

impl Workload for ServeMedium {
    fn state_bits(&self) -> u64 {
        self.state_bits
    }

    fn op(&mut self, out: &mut Samples) -> Result<(), String> {
        self.cycles += 1;
        let state_dir = self.scratch.join(format!("state-{}", self.cycles));
        let _ = std::fs::remove_dir_all(&state_dir);
        let threads = self.problem.threads;
        let (result, wall_s) = timed("bench.op", || {
            let (daemon, _) = timed("hh-serve.boot", || boot(&state_dir, threads));
            let mut daemon = daemon?;
            let (cold, cold_s) = timed("hh-serve.cold", || self.learn(&mut daemon.client));
            let cold = cold?;
            for _ in 0..WARM_REQUESTS {
                let (warm, secs) = timed("hh-serve.warm", || self.warm_learn(&mut daemon.client));
                warm?;
                out.push("warm_ms", secs * 1e3);
            }
            let (flushed, _) = timed("hh-serve.flush", || daemon.client.flush("memo", None));
            flushed.map_err(|e| format!("flush failed: {e}"))?;
            let (replay, _) = timed("hh-serve.replay", || self.learn(&mut daemon.client));
            let replay = replay?;
            let (saved, _) = timed("hh-serve.checkpoint", || daemon.client.checkpoint());
            saved.map_err(|e| format!("checkpoint failed: {e}"))?;
            let checkpoint_bytes = dir_bytes(&state_dir);
            let (first, _) = timed("hh-serve.shutdown", || daemon.stop());
            let first = first?;

            let (daemon, _) = timed("hh-serve.restore", || boot(&state_dir, threads));
            let mut daemon = daemon?;
            let (restored, secs) = timed("hh-serve.restored_warm", || {
                self.warm_learn(&mut daemon.client)
            });
            restored?;
            out.push("warm_ms", secs * 1e3);
            let (second, _) = timed("hh-serve.shutdown", || daemon.stop());
            let second = second?;
            Ok::<_, String>((cold, cold_s, replay, checkpoint_bytes, first, second))
        });
        let _ = std::fs::remove_dir_all(&state_dir);
        let (cold, cold_s, replay, checkpoint_bytes, first, second) = result?;

        if int(&cold, "smt_queries") == 0.0 {
            return Err("cold learn on a fresh state dir issued no SMT query".to_string());
        }
        let (hits, misses) = (int(&replay, "cache_hits"), int(&replay, "cache_misses"));
        if hits == 0.0 || misses > 0.0 {
            return Err(format!(
                "replay learn after flush: {hits} encode-cache hits, {misses} misses"
            ));
        }
        let learns = (first.learns + second.learns) as f64;
        let warm_hits = (first.warm_hits + second.warm_hits) as f64;
        out.push("wall_s", wall_s);
        out.push("learn_s", cold_s);
        out.push("hh-serve.checkpoint_bytes", checkpoint_bytes as f64);
        out.push("hh-serve.warm_hit_frac", warm_hits / learns);
        out.push("hh-smt.cache.hit", hits);
        out.push("hh-smt.cache.miss", misses);
        out.push("hh-smt.cache.hit_frac", hits / (hits + misses));
        out.push("hh-smt.pool.imported", int(&replay, "pool_imported"));
        out.push("hhoudini.queries", int(&cold, "smt_queries"));
        out.push("hhoudini.inv_size", int(&cold, "invariant_size"));
        out.push("veloct.examples_n", int(&cold, "num_examples"));
        Ok(())
    }

    fn probe(&mut self, out: &mut Samples) -> Result<(), String> {
        // Frame round trip: `status` against a memory-warm daemon.
        let state_dir = self.scratch.join("state-probe");
        let mut daemon = boot(&state_dir, self.problem.threads)?;
        for _ in 0..32 {
            let (status, secs) = timed("bench.serve.status", || daemon.client.status());
            status.map_err(|e| format!("status failed: {e}"))?;
            out.push("hh-serve.frame_rtt_us", secs * 1e6);
        }
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(&state_dir);

        // What the cold request does inside the daemon, staged in-process:
        // the daemon's `Stats` never cross the wire.
        let (_, prepared) = pipeline::stage_probe(&self.problem, out)?;
        let mut stats = Samples::default();
        let learned = pipeline::learn(&prepared, self.problem.threads, &mut stats)?;
        if pipeline::wire(&learned.invariant, &prepared.miter) != self.reference {
            return Err("staged in-process learn differs from the reference".to_string());
        }
        // The ops already recorded the daemon's own query/invariant/cache
        // counts; keep those, take everything else from the staged learn.
        out.merge_new(stats);
        pipeline::cone_replay(&prepared, &learned.solutions, out)
    }

    fn rows(&self) -> Vec<&'static str> {
        vec![
            "hh-serve.boot_ms",
            "hh-serve.cold_ms",
            "hh-serve.warm_ms",
            "hh-serve.flush_ms",
            "hh-serve.replay_ms",
            "hh-serve.checkpoint_ms",
            "hh-serve.shutdown_ms",
            "hh-serve.restore_ms",
            "hh-serve.restored_warm_ms",
        ]
    }
}

impl Drop for ServeMedium {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}
