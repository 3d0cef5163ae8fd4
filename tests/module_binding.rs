//! Every module binds to the runtime through one `ModuleCtx`: on a platform
//! model without the place it needs, each of the five modules fails
//! `RuntimeBuilder::build()` with a `ModuleError::Init` carrying its own
//! name, and on a model that has the place it builds. Source guards keep
//! the per-module copies of the binding plumbing from coming back, and keep
//! module and application code off hand-built `on_ready` chains.

use std::sync::Arc;

use hiper::checkpoint::CheckpointModule;
use hiper::gpu::GpuModule;
use hiper::mpi::MpiModule;
use hiper::netsim::{Cluster, NetConfig};
use hiper::platform::{autogen, PathPolicy, PlaceGraph, PlaceKind, PlatformConfig};
use hiper::prelude::*;
use hiper::shmem::{ShmemModule, ShmemWorld};
use hiper::upcxx::{UpcxxModule, UpcxxWorld};

/// One system-memory place and nothing else: no Interconnect, GPU or
/// storage place.
fn bare_platform() -> PlatformConfig {
    let mut g = PlaceGraph::new();
    let sys = g.add_place(PlaceKind::SystemMemory, "sysmem");
    PlatformConfig::new(
        "bare",
        1,
        g,
        vec![sys],
        PathPolicy::HomeFirst,
        PathPolicy::Hierarchical,
    )
    .unwrap()
}

/// Builds a fresh instance of each module, by its stats name, for a
/// one-rank cluster.
fn module(name: &str, cluster: &Cluster) -> Arc<dyn SchedulerModule> {
    let transport = cluster.transport(0);
    match name {
        "mpi" => MpiModule::new(transport),
        "shmem" => ShmemModule::new(ShmemWorld::new(1, 1 << 12), transport),
        "upcxx" => UpcxxModule::new(UpcxxWorld::new(1, 1 << 12), transport),
        "cuda" => GpuModule::new(),
        "checkpoint" => {
            let dir = std::env::temp_dir().join("hiper_module_binding_ckpt");
            CheckpointModule::new(dir)
        }
        other => unreachable!("no module named {}", other),
    }
}

/// The five module sources, by stats name.
const MODULE_FILES: [(&str, &str); 5] = [
    ("mpi", include_str!("../crates/mpi/src/module.rs")),
    ("shmem", include_str!("../crates/shmem/src/module.rs")),
    ("upcxx", include_str!("../crates/upcxx/src/lib.rs")),
    ("cuda", include_str!("../crates/gpu/src/module.rs")),
    (
        "checkpoint",
        include_str!("../crates/checkpoint/src/lib.rs"),
    ),
];

/// (module, a platform without its place, a platform with it)
fn cases() -> Vec<(&'static str, PlatformConfig, PlatformConfig)> {
    vec![
        ("mpi", bare_platform(), autogen::smp(1)),
        ("shmem", bare_platform(), autogen::smp(1)),
        ("upcxx", bare_platform(), autogen::smp(1)),
        ("cuda", autogen::smp(1), autogen::figure2(1)),
        ("checkpoint", autogen::smp(1), autogen::figure2(1)),
    ]
}

#[test]
fn each_module_fails_build_with_its_own_name_when_its_place_is_missing() {
    for (name, missing, _) in cases() {
        let cluster = Cluster::start(1, NetConfig::instant());
        let m = module(name, &cluster);
        assert_eq!(m.name(), name);
        match RuntimeBuilder::new(missing).module(m).build() {
            Err(e @ ModuleError::Init { .. }) => {
                assert_eq!(e.module(), name, "{}", e);
                assert!(
                    e.to_string().contains("platform model contains no"),
                    "{}",
                    e
                );
            }
            Err(e) => panic!("{}: expected ModuleError::Init, got {}", name, e),
            Ok(rt) => {
                rt.shutdown();
                panic!("{}: build succeeded without the place it needs", name);
            }
        }
        cluster.stop();
    }
}

#[test]
fn each_module_builds_and_finalizes_where_its_place_exists() {
    for (name, _, present) in cases() {
        let cluster = Cluster::start(1, NetConfig::instant());
        let rt = RuntimeBuilder::new(present)
            .module(module(name, &cluster))
            .build()
            .unwrap_or_else(|e| panic!("{}: {}", name, e));
        rt.shutdown();
        cluster.stop();
    }
}

#[test]
fn module_files_carry_no_copy_of_the_binding_plumbing() {
    for (name, src) in MODULE_FILES {
        for banned in [
            "fn taskify",
            "fn with_state",
            "ModuleState>>",
            "module_stats().time_op(",
        ] {
            assert!(
                !src.contains(banned),
                "{} module re-implements `{}`: use its ModuleCtx",
                name,
                banned
            );
        }
    }
}

#[test]
fn module_and_application_code_chains_futures_fail_fast() {
    let apps = [
        ("geo", include_str!("../crates/bench/src/geo.rs")),
        ("stencil3d", include_str!("../examples/stencil3d.rs")),
    ];
    for (name, src) in MODULE_FILES.into_iter().chain(apps) {
        assert!(
            !src.contains("on_ready("),
            "{} chains a future by hand with `on_ready`: use `map`, \
             `and_then` or a predicated spawn, which skip the body on poison",
            name
        );
    }
}
