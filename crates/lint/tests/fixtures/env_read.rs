// Fixture: rule `env-read`.
//
// No production module reads process environment; configuration must
// arrive as explicit parameters (the kernel backend is the platform's
// pick, not a variable's).

pub fn thread_count() -> usize {
    std::env::var("TRINITY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
