//! `dbmined` — the long-running structure-mining daemon.
//!
//! ```text
//! dbmined --stdio [--cache N]
//! dbmined --listen ADDR [--cache N]
//! ```
//!
//! Speaks the line-delimited JSON protocol of [`dbmine::server`]: one
//! request object per line in, one response object per line out. In
//! `--stdio` mode requests are read from stdin until EOF or a
//! `shutdown` request. In `--listen` mode each TCP connection gets its
//! own thread; all connections share one context LRU, and a `shutdown`
//! request from any connection stops the whole daemon.

use dbmine::server::{Daemon, DEFAULT_CACHE_CAPACITY};
#[cfg(feature = "telemetry")]
use dbmine::telemetry;
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;

// Same counting-allocator arrangement as the `dbmine` binary: profiled
// requests report allocation deltas, the uninstrumented build stays on
// the system allocator.
#[cfg(feature = "telemetry")]
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "dbmined — structure-mining daemon (line-delimited JSON protocol)\n\
         \n\
         USAGE:\n\
         \x20 dbmined --stdio [--cache N]\n\
         \x20 dbmined --listen ADDR [--cache N]\n\
         \n\
         OPTIONS:\n\
         \x20 --stdio       serve requests from stdin, one JSON object per line\n\
         \x20 --listen ADDR serve TCP connections on ADDR (e.g. 127.0.0.1:7433)\n\
         \x20 --cache N     resident AnalysisCtx LRU capacity (default {DEFAULT_CACHE_CAPACITY})\n\
         \n\
         PROTOCOL:\n\
         \x20 {{\"id\":1,\"cmd\":\"analyze\",\"path\":\"data.csv\"}}\n\
         \x20 {{\"id\":2,\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"name\":\"inline\"}}\n\
         \x20 commands: analyze duplicates fds partition redesign ping stats shutdown\n\
         \x20 per-request: phi_t phi_v psi threads max_lhs approx k steps profile"
    );
    exit(2);
}

fn main() {
    #[cfg(feature = "telemetry")]
    telemetry::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<Mode> = None;
    let mut capacity = DEFAULT_CACHE_CAPACITY;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" => mode = Some(Mode::Stdio),
            "--listen" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("error: --listen requires an address");
                    exit(2);
                };
                mode = Some(Mode::Listen(addr.clone()));
            }
            "--cache" => {
                i += 1;
                capacity = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --cache requires an integer ≥ 1");
                        exit(2);
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    let Some(mode) = mode else { usage() };
    let daemon = Arc::new(Daemon::new(capacity));
    match mode {
        Mode::Stdio => {
            let stdin = std::io::stdin().lock();
            let stdout = std::io::stdout().lock();
            if let Err(e) = daemon.serve_lines(stdin, stdout) {
                eprintln!("error: {e}");
                exit(1);
            }
        }
        Mode::Listen(addr) => {
            if let Err(e) = serve_tcp(&daemon, &addr) {
                eprintln!("error: {e}");
                exit(1);
            }
        }
    }
}

enum Mode {
    Stdio,
    Listen(String),
}

fn serve_tcp(daemon: &Arc<Daemon>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    eprintln!("dbmined listening on {local}");
    for conn in listener.incoming() {
        // A `shutdown` request on any connection flips the flag; the
        // handler thread then unblocks this accept loop by dialing the
        // listener itself (see below). Connection threads are detached:
        // returning from here exits the process, which is what ends any
        // connection still idle at shutdown (its `serve_lines` would
        // otherwise block on its socket indefinitely).
        if daemon.shutdown_requested() {
            break;
        }
        let stream = conn?;
        // Replies are single small writes; send each at once instead of
        // holding it for the client's ACK of the previous one.
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("warning: cannot disable Nagle's algorithm: {e}");
        }
        let daemon = Arc::clone(daemon);
        std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot clone connection: {e}");
                    return;
                }
            });
            let mut writer = stream;
            if let Err(e) = daemon.serve_lines(reader, &mut writer) {
                eprintln!("connection error: {e}");
            }
            let _ = writer.flush();
            if daemon.shutdown_requested() {
                // Wake the accept loop so the daemon can exit.
                let _ = std::net::TcpStream::connect(local);
            }
        });
    }
    Ok(())
}
