package event

import "time"

// BackpressureObserver consumes the transport back-pressure signals the
// producers already measure: the consumer-queue occupancy seen at ship
// time and the acknowledgement round trip of the remote path.
// sampling.Controller implements it to steer the budgeted sampling rate;
// the pipeline router, the remote client and the cluster members feed it.
type BackpressureObserver interface {
	// ObserveQueue reports the consumer queue's occupancy (queued of
	// capacity) as seen by the producer at ship time.
	ObserveQueue(queued, capacity int)
	// ObserveRTT reports one acknowledgement round trip.
	ObserveRTT(rtt time.Duration)
}
