//! The untraced benchmark: every end-to-end metric comes from this binary.

fn main() {
    std::process::exit(ppa_benchmark::harness::main(false));
}
