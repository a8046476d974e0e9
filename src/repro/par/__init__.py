"""Sharded parallel campaign execution: ``repro.par``.

The layer every large-scale experiment runs on.  A campaign — fuzz
iterations, resilience-matrix cells, Juliet cases, bench
configurations — is deterministically split into independent shards
(splitmix64 seed-splitting), executed by a crash-recovering
multiprocessing pool with a work-stealing queue and per-shard
wall-clock budgets, and merged back into outputs byte-identical to a
sequential run of the same seed (timing fields aside).

==============  ======================================================
module          role
==============  ======================================================
`seeds`         the repo's one splitmix64: retry reseeding, shard seed
                namespaces, the shared backoff schedule
`plan`          :class:`ShardPlan` / :class:`ShardSpec` — deterministic
                order-preserving campaign splitting
`pool`          the worker pool: work stealing, budgets, requeue-with-
                backoff crash recovery, typed :class:`ShardFailure`
`checkpoint`    resumable on-disk manifest + per-shard result files
`merge`         fold shard results into sequential-identical artifacts;
                timing-insensitive document diffing
`campaigns`     worker-side shard runners per campaign kind
`kinds`         the campaign-kind table: one record per kind holding
                its runner, planner, merge, verdict, summary and
                metrics document
`engine`        execute → merge → resume entry points for the CLIs and
                the campaign service
`cli`           the campaign CLIs' one front end: pool flags, signal
                drain, report and exit code
==============  ======================================================

The package root imports nothing: ``repro.par.seeds`` sits on the
``import repro`` path (retry reseeding), and the pool, checkpoint and
merge layers load only when a campaign runs.  Import from the
submodules.
"""
