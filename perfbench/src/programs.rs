//! Seeded inputs: programs of the clfp benchmark suite with their data
//! salted by the seed.
//!
//! Every suite program draws its data from one stateless hash generator,
//! `rnd(k)`, except `parse`, which steps an LCG from a global `seed`. The
//! seed adds a salt to the generator's index (for `parse`, it replaces
//! the LCG's start value), so two seeds run the same code over different
//! data. The value `main` must return comes from the MiniC reference
//! interpreter, which shares no code with the compiler or the VM.

/// The measured subset of `clfp::workloads::suite()`: `qsort`
/// (data-dependent branches), `dataflow` (worklist iteration over
/// graphs) and `matmul` (data-independent loops). Unsalted, they trace
/// 3.72M of the suite's 13.27M events at its default 2M-instruction cap
/// (28%). Over 40 salts their trace lengths varied by at most 2.2%
/// (coefficient of variation), so every seed does about the same work.
/// Left out: `scan`, `logic`, `eventsim` and `parse`, whose lengths
/// varied by 13-320% (one `scan` salt ran past 50M instructions);
/// `fmt`, `sparse` and `stencil`, which run into the cap, so the value
/// `main` returns cannot be checked.
const MEASURED: [&str; 3] = ["qsort", "dataflow", "matmul"];

/// The line of `rnd(k)` that takes the index, and of `parse` that seeds
/// its LCG.
const RND_LINE: &str = "var v: int = k * 2654435761 + 1013904223;";
const LCG_LINE: &str = "var seed: int = 20240607;";

/// Evaluation budget of the reference interpreter.
const INTERP_FUEL: u64 = 2_000_000_000;

/// One seeded program.
pub struct Input {
    /// Suite name.
    pub name: &'static str,
    /// MiniC source with its data salted.
    pub source: String,
    /// The value `main` must return, from the reference interpreter.
    pub expected: i32,
}

/// SplitMix64: derives one independent salt per program from the seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `source` with its data generator salted, or `None` if it has none.
fn salted(source: &str, salt: i32) -> Option<String> {
    if source.contains(RND_LINE) {
        let line = format!("var v: int = (k + {salt}) * 2654435761 + 1013904223;");
        Some(source.replacen(RND_LINE, &line, 1))
    } else if source.contains(LCG_LINE) {
        Some(source.replacen(LCG_LINE, &format!("var seed: int = {salt};"), 1))
    } else {
        None
    }
}

/// The measured programs for `seed`, each with its expected result.
pub fn suite(seed: u64) -> Result<Vec<Input>, String> {
    MEASURED
        .iter()
        .enumerate()
        .map(|(index, &name)| {
            let workload = clfp::workloads::by_name(name).map_err(|err| err.to_string())?;
            // Salts stay below 2^20 so `k + salt` stays far from overflow.
            let salt = (splitmix64(seed ^ ((index as u64) << 32)) & 0xf_ffff) as i32;
            let source = salted(workload.source(), salt)
                .ok_or(format!("{name}: no data generator to salt"))?;
            let expected = clfp::lang::interpret_source(&source, INTERP_FUEL)
                .map_err(|err| format!("{name}: reference interpreter: {err}"))?
                .result;
            Ok(Input {
                name,
                source,
                expected,
            })
        })
        .collect()
}
