package cutfit

import "cutfit/internal/pregel"

// Answers lists the converged answers the session's cache holds, for the
// tests that check every one of them (values, stamp invariant).
func (se *Session) Answers() []pregel.StoredAnswer { return se.st.Answers() }

// PutAnswer plants an answer of alg on g in the session's cache.
func (se *Session) PutAnswer(g *Graph, alg string, a pregel.StoredAnswer) {
	se.st.PutAnswer(g, alg, a, false)
}
