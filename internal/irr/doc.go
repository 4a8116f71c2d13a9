// Package irr implements the routing-hygiene databases an IXP route
// server consults on import (Section 4.3, Figure 6): an Internet Routing
// Registry (IRR) of registered (origin AS, prefix) pairs and a bogon
// prefix list. The route server's import policy rejects announcements
// that conflict with either of them.
package irr
