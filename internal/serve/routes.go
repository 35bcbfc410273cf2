package serve

// Route is one row of the HTTP surface: the method and path pattern a
// Server answers, what it does, and where it is mounted. The
// table is the single source of truth the API documentation
// (docs/API.md) is drift-tested against, and the server tests assert
// every row is actually routable.
type Route struct {
	Method  string
	Pattern string // {name} marks the tenant path segment
	Summary string
	// ClusterOnly routes exist only on cluster member nodes (Options.
	// Node set): the checkpoint-handoff admin surface.
	ClusterOnly bool
}

// Routes returns the full route table.
func Routes() []Route {
	return []Route{
		{Method: "GET", Pattern: "/v1/tenants",
			Summary: "every tenant's status plus its serving statistics (waiters, subscribers, cached versions)"},
		{Method: "GET", Pattern: "/v1/t/{name}/checkpoint", ClusterOnly: true,
			Summary: "tenant's current engine checkpoint — the migration handoff document a standby syncs and a new owner restores warm"},
		{Method: "POST", Pattern: "/v1/cluster/adopt", ClusterOnly: true,
			Summary: "start hosting a tenant here: body {\"tenant\",\"checkpoint\"?}; a missing checkpoint restores the node's synced standby copy, else adopts cold"},
		{Method: "GET", Pattern: "/v1/t/{name}/snapshot",
			Summary: "latest snapshot: ETag/If-None-Match conditional get, ?min_version=N long-poll, delta via Accept: application/vnd.tmserve.delta+json with ?since=V, gzip via Accept-Encoding"},
		{Method: "GET", Pattern: "/v1/t/{name}/events",
			Summary: "Server-Sent Events stream of version announcements and deltas"},
		{Method: "GET", Pattern: "/v1/t/{name}/metrics",
			Summary: "tenant's estimation-error history"},
		{Method: "GET", Pattern: "/metrics/prom",
			Summary: "Prometheus text-format telemetry: estimation, SLO and serving families for every hosted tenant"},
		{Method: "GET", Pattern: "/healthz",
			Summary: "liveness plus per-tenant state and SLO degradation causes"},
	}
}

// CoordinatorRoutes returns the route table of coordinator mode — the
// cluster's front door. Tenant-scoped reads are not answered locally:
// they are proxied (or 307-redirected, per the cluster config's
// routing) to the owning node, with the error envelope and
// ETag/delta/SSE semantics passing through unchanged and the
// X-Tenant-Node header naming the owner.
func CoordinatorRoutes() []Route {
	return []Route{
		{Method: "GET", Pattern: "/v1/tenants",
			Summary: "fleet-wide tenant listing aggregated across member nodes, each row annotated with its node, plus per-node health and routing counters"},
		{Method: "GET", Pattern: "/v1/t/{name}/snapshot",
			Summary: "proxied or 307-redirected to the owning node; conditional gets, long-polls and delta negotiation pass through unchanged"},
		{Method: "GET", Pattern: "/v1/t/{name}/events",
			Summary: "SSE stream, proxied unbuffered (or redirected) to the owning node"},
		{Method: "GET", Pattern: "/v1/t/{name}/metrics",
			Summary: "estimation-error history from the owning node"},
		{Method: "GET", Pattern: "/v1/t/{name}/checkpoint",
			Summary: "the owning node's handoff checkpoint"},
		{Method: "GET", Pattern: "/metrics/prom",
			Summary: "Prometheus text-format telemetry: per-node health, probe-failure and proxy/redirect routing counters"},
		{Method: "POST", Pattern: "/v1/cluster/migrate",
			Summary: "move a tenant via checkpoint handoff: ?tenant=X&to=node pulls the owner's checkpoint, ships it to the target's adopt endpoint and repoints routing"},
		{Method: "GET", Pattern: "/healthz",
			Summary: "coordinator liveness plus per-node probe state"},
	}
}
