//! The traced benchmark: the same workload code with the counting allocator
//! installed and the span recorder on; every per-layer metric comes from
//! this binary.

#[global_allocator]
static ALLOCATOR: ppa_benchmark::alloc_count::Counting = ppa_benchmark::alloc_count::Counting;

fn main() {
    std::process::exit(ppa_benchmark::harness::main(true));
}
