//! Seeded violation: a CPU-feature branch outside the kernel module.

fn wide() -> bool {
    std::is_x86_feature_detected!("avx2")
}
