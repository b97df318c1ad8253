//! `crimson-serve` — run a crimson server over a tenant root directory.
//!
//! ```text
//! crimson-serve --root DIR [--addr HOST:PORT] [--workers N]
//!               [--batch-max N] [--max-queue N] [--window N]
//!               [--duration SECS]
//! ```
//!
//! `--batch-max 1` serves every read on its own pinned epoch.
//! Without `--duration` the server runs until the process is killed.
//! The bound address is printed as `LISTENING <addr>` on stdout so
//! harnesses using an ephemeral port (`--addr 127.0.0.1:0`) can find it.

use std::time::Duration;

use crimson_server::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: crimson-serve --root DIR [--addr HOST:PORT] [--workers N] \
         [--batch-max N] [--max-queue N] [--window N] [--duration SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut root: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut duration: Option<u64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--root" => root = Some(value(&mut i)),
            "--addr" => config.addr = value(&mut i),
            "--workers" => {
                config.dispatch.workers = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--batch-max" => {
                config.dispatch.batch_max = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--max-queue" => {
                config.dispatch.max_queue = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--window" => config.conn_window = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration" => duration = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let Some(root) = root else { usage() };

    let server = match Server::start(config, root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("crimson-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", server.addr());

    match duration {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            server.shutdown();
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
