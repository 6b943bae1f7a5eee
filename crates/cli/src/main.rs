//! `prsim` — command-line interface for the PRSim SimRank suite.
//!
//! ```text
//! prsim generate <model> [options] --out FILE     synthesize a graph
//! prsim convert  IN OUT                           text <-> binary graph formats
//! prsim stats    GRAPH                            size / degree / exponent report
//! prsim build    GRAPH --index FILE [options]     preprocess: build + save index
//! prsim query    GRAPH --source U [options]       single-source top-k query
//! prsim pair     GRAPH --u A --v B [options]      single-pair estimate
//! prsim update   GRAPH --stream FILE [options]    replay an edge-update stream
//! prsim serve    GRAPH --wal DIR [options]        resident engine over a durable WAL
//! ```
//!
//! Graph files ending in `.bin` use the compact binary format; anything
//! else is whitespace edge-list text.

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "convert" => commands::convert(rest),
        "stats" => commands::stats(rest),
        "build" => commands::build(rest),
        "query" => commands::query(rest),
        "topk" => commands::topk(rest),
        "pair" => commands::pair(rest),
        "update" => commands::update(rest),
        "serve" => match commands::serve(rest) {
            Ok(code) => return code,
            Err(msg) => Err(msg),
        },
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
