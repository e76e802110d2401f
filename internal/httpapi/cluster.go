package httpapi

import (
	"errors"
	"net/http"

	"repro/internal/membership"
)

// Cluster-membership endpoints — the wire surface of internal/membership's
// gossip protocol, mounted on every replica's serving port:
//
//	POST /v1/cluster/gossip   {message}  — merge a peer's view, reply with ours
//	POST /v1/cluster/join     {message}  — alias: a join is a first gossip
//	GET  /v1/cluster/members             — full member table + view digest
//
// All answer 503 on a node running without membership (single-node mode), so
// a misdirected gossip fails cleanly instead of looking like a routing bug.
// Membership traffic bypasses the /v1/ load shedding and request timeout
// (see server.limit): a saturated replica must keep heartbeating, or load
// alone would drive Suspect→Dead ejections.

func registerClusterRoutes(mux *http.ServeMux, s server) {
	mux.HandleFunc("POST "+membership.GossipPath, s.handleGossip)
	mux.HandleFunc("POST "+membership.JoinPath, s.handleGossip)
	mux.HandleFunc("GET /v1/cluster/members", s.handleMembers)
}

func (s server) handleGossip(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Membership == nil {
		WriteError(w, http.StatusServiceUnavailable,
			errors.New("this node runs without cluster membership"))
		return
	}
	var msg membership.Message
	if !decodeJSON(w, r, &msg) {
		return
	}
	WriteJSON(w, http.StatusOK, s.cfg.Membership.ReceiveGossip(msg))
}

func (s server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Membership == nil {
		WriteError(w, http.StatusServiceUnavailable,
			errors.New("this node runs without cluster membership"))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"digest":  s.cfg.Membership.Digest(),
		"members": s.cfg.Membership.Members(),
		"serving": s.cfg.Membership.Serving(),
	})
}
