package repair

import (
	"slices"
	"sort"
	"time"
)

// Link is a failure detector's estimate of one neighbour: when it was last
// known alive and the rhythm of its beats, from which the silence that makes
// it a suspect follows. It replaces a configured timeout with one the link
// earns (after Delporte-Gallet et al., "Algorithms for extracting timeliness
// graphs": decide which links are timely from the delays observed on them).
//
// The rhythm is a Jacobson/Karels running mean and mean deviation of the
// inter-beat interval, gains 1/8 and 1/4 as in TCP's retransmission timer,
// and the timeout is 2·mean + 4·dev: one beat may be lost outright and the
// next may come as late as this link's beats have been seen to come. A fresh
// link starts at mean = every, dev = 1.5·every — eight beats — so it is
// patient until its own history says otherwise, and a jittery link stretches
// by itself. The mean never falls below every: the peer promised that cadence,
// so beats closer together are a held-up batch arriving at once (a stalled
// sender catching up, a network flushing its queue), not a faster rhythm, and
// a burst of them widens the deviation without collapsing the timeout.
//
// Link is pure: callers hand it timestamps (nanoseconds on any one monotonic
// scale, positive) and it keeps no clock. Only beats feed the rhythm — they
// have a promised cadence; anything else the peer sends shows it alive (Alive)
// but says nothing about when the next beat is due.
type Link struct {
	heard     int64 // when the peer was last known alive
	beat      int64 // its latest beat; 0 before the first
	every     int64 // the promised beat period
	mean, dev int64
}

// NewLink returns the estimate of a neighbour first watched at now, promised
// to beat once per every.
func NewLink(every time.Duration, now int64) Link {
	return Link{heard: now, every: int64(every), mean: int64(every), dev: int64(every) * 3 / 2}
}

// Beat records a beat published (or arrived) at at. The first one only sets
// the baseline; each later one contributes its distance from the previous as
// a sample. A timestamp not after the latest beat is that beat seen again (a
// checker re-reading a beacon) and changes nothing. A checker that skipped a
// beat hands in a long sample, which errs toward patience.
func (l *Link) Beat(at int64) {
	if at <= l.beat {
		return
	}
	if l.beat != 0 {
		err := at - l.beat - l.mean
		l.mean = max(l.mean+err/8, l.every)
		if err < 0 {
			err = -err
		}
		l.dev += (err - l.dev) / 4
	}
	l.beat = at
	l.Alive(at)
}

// Alive records that the peer was alive at at without touching the rhythm:
// data from the peer, or the checker restarting the count after a pause of
// its own.
func (l *Link) Alive(at int64) {
	if at > l.heard {
		l.heard = at
	}
}

// Timeout is the silence after which the peer is a suspect.
func (l *Link) Timeout() int64 { return 2*l.mean + 4*l.dev }

// Deadline is the instant the current silence reaches Timeout.
func (l *Link) Deadline() int64 { return l.heard + l.Timeout() }

// Slack is how much of the timeout is margin: what is left after the one
// interval a healthy peer is silent between beats. A checker that was itself
// held up for longer than this cannot tell the peer's silence from its own.
func (l *Link) Slack() int64 { return l.Timeout() - l.mean }

// Watched is one neighbour a failure detector watches: its id and its Link.
type Watched struct {
	Peer int
	Link
}

// Links is the set of neighbours a node watches — its parent and its current
// children — ascending by id, each with its own estimate. It is a list edited
// in place as links come and go, so walking it on every tick builds nothing,
// and an estimate lives and dies with its link.
type Links []Watched

// Add starts watching peer on a fresh estimate, replacing any it had. Without
// a beat period (heartbeats off) nobody is watched.
func (ls *Links) Add(peer int, every time.Duration, now int64) {
	if every <= 0 {
		return
	}
	ls.Drop(peer)
	i := sort.Search(len(*ls), func(i int) bool { return (*ls)[i].Peer > peer })
	*ls = slices.Insert(*ls, i, Watched{peer, NewLink(every, now)})
}

// Drop stops watching peer, if it was watched.
func (ls *Links) Drop(peer int) {
	*ls = slices.DeleteFunc(*ls, func(w Watched) bool { return w.Peer == peer })
}

// Of returns peer's entry, valid until the next Add or Drop, or nil.
func (ls Links) Of(peer int) *Watched {
	for i := range ls {
		if ls[i].Peer == peer {
			return &ls[i]
		}
	}
	return nil
}
