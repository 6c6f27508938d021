//! Child `pqo serve` processes: spawned on an ephemeral port, measured from
//! outside through `/proc`, and always reaped — a guard kills the child on
//! every path that does not shut it down cleanly first.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use pqo_server::PqoClient;

use crate::affinity::CpuSet;
use crate::inputs::ServeTemplates;
use crate::procfs::{self, CpuTimes};

/// Worker threads every benchmarked server runs with (`nproc` of the
/// sandbox the bounds were measured on).
pub const SERVER_WORKERS: usize = 2;

/// The `pqo` binary: `--pqo-bin`, else the file beside this executable
/// (both are built into the same target directory).
pub fn pqo_binary(explicit: Option<&str>) -> Result<PathBuf, String> {
    let path = match explicit {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("pqo"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{}: no `pqo` binary (build it with `cargo build --release -p pqo-cli`)",
            path.display()
        ))
    }
}

/// Which role a spawned server plays.
pub enum Role<'a> {
    Standalone,
    Primary,
    ReplicaOf(&'a str),
}

/// A running `pqo serve` child.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// What a server printed in its exit summary.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExitSummary {
    pub frames_served: u64,
    pub poll_wakeups: u64,
    pub peak_queue_depth: u64,
    pub gens_pushed: u64,
    pub gens_applied: u64,
    pub replication_out_bytes: u64,
}

impl Server {
    /// Spawn `pqo serve --listen 127.0.0.1:0` and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(
        pqo: &Path,
        templates: &ServeTemplates,
        lambda: f64,
        role: Role<'_>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(pqo);
        cmd.args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--lambda", &lambda.to_string()])
            .args(["--workers", &SERVER_WORKERS.to_string()]);
        match templates {
            ServeTemplates::Corpus(ids) => cmd.args(["--template", &ids.join(",")]),
            ServeTemplates::Dir(dir) => cmd.arg("--templates-dir").arg(dir),
        };
        match role {
            Role::Standalone => {}
            Role::Primary => {
                cmd.args(["--primary", "true"]);
            }
            Role::ReplicaOf(primary) => {
                cmd.args(["--replica-of", primary]);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pqo.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
        };
        // From here on `server`'s Drop reaps the child on every error path.
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server output: {e}"))?;
            if n == 0 {
                return Err("pqo serve exited before it was listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Move every thread of the server to the CPUs of `set`.
    pub fn pin(&self, set: &CpuSet) -> Result<(), String> {
        set.pin_process(self.pid())
            .map_err(|e| format!("moving the server to another CPU: {e}"))
    }

    pub fn cpu(&self) -> Result<CpuTimes, String> {
        procfs::cpu_times(self.pid()).map_err(|e| e.to_string())
    }

    /// Nanoseconds on a CPU so far, all threads.
    pub fn run_ns(&self) -> Result<u64, String> {
        procfs::run_ns(self.pid()).map_err(|e| e.to_string())
    }

    pub fn ctx_switches(&self) -> Result<u64, String> {
        procfs::ctx_switches(self.pid()).map_err(|e| e.to_string())
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        procfs::peak_rss_mib(self.pid()).map_err(|e| e.to_string())
    }

    pub fn connect(&self) -> Result<PqoClient, String> {
        PqoClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Ask the server to shut down, wait for it and parse its exit summary.
    /// The child is killed if it does not exit cleanly.
    pub fn shutdown(mut self) -> Result<ExitSummary, String> {
        self.connect()?
            .shutdown_server()
            .map_err(|e| format!("shutdown {}: {e}", self.addr))?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading exit summary: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        if !status.success() {
            return Err(format!("pqo serve exited with {status}"));
        }
        Ok(parse_exit_summary(&rest))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a clean shutdown the child is already reaped and both calls
        // are no-ops that return an error we do not need.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pull the counters the benchmark reports out of the `server exit summary`
/// block (`label : value` lines).
pub fn parse_exit_summary(text: &str) -> ExitSummary {
    let field = |label: &str| -> u64 {
        text.lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                if name.trim() != label {
                    return None;
                }
                value.split_ascii_whitespace().next()?.parse().ok()
            })
            .unwrap_or(0)
    };
    ExitSummary {
        frames_served: field("frames served"),
        poll_wakeups: field("poll wakeups"),
        peak_queue_depth: field("peak queue depth"),
        gens_pushed: field("generations pushed"),
        gens_applied: field("generations applied"),
        replication_out_bytes: field("replication out"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_summary_fields_parse() {
        let text = "\nserver exit summary\npolicy              : scr\n\
            frames served       : 1234\npoll wakeups        : 2500\n\
            peak queue depth    : 2\ngenerations pushed  : 17\n\
            generations applied : 0\nreplication out     : 9876 B\n\n[t]\nplans cached        : 3\n";
        let s = parse_exit_summary(text);
        assert_eq!(s.frames_served, 1234);
        assert_eq!(s.poll_wakeups, 2500);
        assert_eq!(s.peak_queue_depth, 2);
        assert_eq!(s.gens_pushed, 17);
        assert_eq!(s.gens_applied, 0);
        assert_eq!(s.replication_out_bytes, 9876);
        assert_eq!(parse_exit_summary("").frames_served, 0);
    }
}
