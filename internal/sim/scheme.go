// Package sim implements the paper's trace-driven simulator for the
// seven caching schemes of §2–3:
//
//	NC      no cache cooperation                      (LFU)
//	SC      simple cooperation: serve misses          (LFU)
//	FC      full cooperation: coordinated placement   (cost-benefit)
//	NC-EC   NC + unified proxy/P2P client cache       (LFU)
//	SC-EC   SC + unified proxy/P2P client cache       (LFU)
//	FC-EC   FC + coordinated two-tier placement       (cost-benefit)
//	HierGD  hierarchical greedy-dual over a real      (greedy-dual)
//	        Pastry P2P client cache with lookup
//	        directories, diversion, piggybacking, push
//
// A Run replays a trace against one scheme and reports the average
// access latency and the mechanism telemetry; package core composes
// runs into the paper's figures.
package sim

import (
	"fmt"
	"strings"
)

// Scheme enumerates the caching schemes.
type Scheme int

// The schemes in the paper's order, plus the Squirrel related-work
// baseline (§6).
const (
	NC Scheme = iota
	SC
	FC
	NCEC
	SCEC
	FCEC
	HierGD
	// Squirrel is Iyer/Rowstron/Druschel's proxy-less peer-to-peer web
	// cache — the system the paper contrasts Hier-GD with.  It is not
	// part of AllSchemes (the paper's seven) but runs in the same
	// simulator for the comparison the paper argues qualitatively.
	Squirrel
	numSchemes
)

// NumSchemes is the number of schemes.
const NumSchemes = int(numSchemes)

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{NC, SC, FC, NCEC, SCEC, FCEC, HierGD}
}

var schemeNames = map[Scheme]string{
	NC:       "NC",
	SC:       "SC",
	FC:       "FC",
	NCEC:     "NC-EC",
	SCEC:     "SC-EC",
	FCEC:     "FC-EC",
	HierGD:   "Hier-GD",
	Squirrel: "Squirrel",
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme resolves a scheme name (case-insensitive, with or
// without the hyphen).
func ParseScheme(name string) (Scheme, error) {
	key := strings.ToUpper(strings.ReplaceAll(name, "-", ""))
	for s, n := range schemeNames {
		if strings.ToUpper(strings.ReplaceAll(n, "-", "")) == key {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", name)
}

// UsesClientCaches reports whether the scheme exploits client caches.
func (s Scheme) UsesClientCaches() bool {
	switch s {
	case NCEC, SCEC, FCEC, HierGD, Squirrel:
		return true
	}
	return false
}

// Cooperative reports whether proxies serve each other's misses.
func (s Scheme) Cooperative() bool {
	switch s {
	case SC, FC, SCEC, FCEC, HierGD:
		return true
	}
	return false
}
