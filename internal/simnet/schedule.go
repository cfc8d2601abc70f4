package simnet

import (
	"fmt"
	"math/rand"
)

// StepKind is one schedule action.
type StepKind int

// Schedule step kinds.
const (
	// StepCrash crashes node A.
	StepCrash StepKind = iota + 1
	// StepRestart restarts node A.
	StepRestart
	// StepPartition blocks deliveries A -> B.
	StepPartition
	// StepHeal unblocks deliveries A -> B.
	StepHeal
	// StepNone is an idle step (the overlay runs fault-free for a round).
	StepNone
	// StepBrownout browns out node A's backend: its engine starts erroring,
	// stalling and spiking latency per the run's brownout profile. The node
	// itself stays up and honest — only its engine degrades.
	StepBrownout
	// StepBrownoutHeal restores node A's backend to the healthy profile.
	StepBrownoutHeal
)

// Step is one node-level fault action of a chaos schedule.
type Step struct {
	Kind StepKind
	A, B string
}

// String renders the step.
func (s Step) String() string {
	switch s.Kind {
	case StepCrash:
		return "crash " + s.A
	case StepRestart:
		return "restart " + s.A
	case StepPartition:
		return fmt.Sprintf("partition %s->%s", s.A, s.B)
	case StepHeal:
		return fmt.Sprintf("heal %s->%s", s.A, s.B)
	case StepNone:
		return "idle"
	case StepBrownout:
		return "brownout " + s.A
	case StepBrownoutHeal:
		return "brownout-heal " + s.A
	}
	return fmt.Sprintf("step(%d)", s.Kind)
}

// ScheduleConfig tunes schedule generation.
type ScheduleConfig struct {
	// Steps is the schedule length (default 16).
	Steps int
	// MaxDown bounds simultaneously crashed nodes (default len(ids)/4,
	// at least 1).
	MaxDown int
	// MaxPartitions bounds simultaneously blocked directed pairs (default
	// len(ids)/2, at least 1).
	MaxPartitions int
}

// GenSchedule derives a node-level fault schedule from the seed: a sequence
// of crash / restart / partition / heal steps that never exceeds the
// configured damage bounds. It is a pure function — the same seed, node
// list and config produce the identical schedule in every run — which is
// what makes a chaos run replayable.
func GenSchedule(seed int64, ids []string, cfg ScheduleConfig) []Step {
	if cfg.Steps <= 0 {
		cfg.Steps = 16
	}
	if cfg.MaxDown <= 0 {
		cfg.MaxDown = max(1, len(ids)/4)
	}
	if cfg.MaxPartitions <= 0 {
		cfg.MaxPartitions = max(1, len(ids)/2)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5c4ed01e))

	crashed := map[string]bool{}
	var crashedList []string
	parts := map[[2]string]bool{}
	var partsList [][2]string

	steps := make([]Step, 0, cfg.Steps)
	for len(steps) < cfg.Steps {
		switch rng.Intn(5) {
		case 0: // crash a random alive node
			if len(crashed) >= cfg.MaxDown {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if crashed[id] {
				continue
			}
			crashed[id] = true
			crashedList = append(crashedList, id)
			steps = append(steps, Step{Kind: StepCrash, A: id})
		case 1: // restart a random crashed node
			if len(crashedList) == 0 {
				continue
			}
			i := rng.Intn(len(crashedList))
			id := crashedList[i]
			crashedList = append(crashedList[:i], crashedList[i+1:]...)
			delete(crashed, id)
			steps = append(steps, Step{Kind: StepRestart, A: id})
		case 2: // partition a random directed pair
			if len(parts) >= cfg.MaxPartitions {
				continue
			}
			a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if a == b || parts[[2]string{a, b}] {
				continue
			}
			parts[[2]string{a, b}] = true
			partsList = append(partsList, [2]string{a, b})
			steps = append(steps, Step{Kind: StepPartition, A: a, B: b})
		case 3: // heal a random partition
			if len(partsList) == 0 {
				continue
			}
			i := rng.Intn(len(partsList))
			p := partsList[i]
			partsList = append(partsList[:i], partsList[i+1:]...)
			delete(parts, p)
			steps = append(steps, Step{Kind: StepHeal, A: p[0], B: p[1]})
		case 4:
			steps = append(steps, Step{Kind: StepNone})
		}
	}
	return steps
}

// BrownoutScheduleConfig tunes backend-brownout schedule generation.
type BrownoutScheduleConfig struct {
	// Steps is the schedule length (default 16).
	Steps int
	// MaxBrowned bounds simultaneously browned-out backends (default
	// len(ids)*3/10, at least 1 — the 30% brownout the acceptance scenario
	// names).
	MaxBrowned int
}

// GenBrownoutSchedule derives a backend-brownout schedule from the seed:
// brownout / heal / idle steps whose browned-out set never exceeds
// MaxBrowned. Generation is weighted toward browning (3:1:1) so the damage
// hovers near the cap for most of the run instead of drifting back to
// healthy. Like GenSchedule it is a pure function of its inputs, so a
// failing run replays from its seed. Brownout schedules are generated
// separately from node-fault schedules: existing seeds keep producing
// byte-identical GenSchedule output.
func GenBrownoutSchedule(seed int64, ids []string, cfg BrownoutScheduleConfig) []Step {
	if cfg.Steps <= 0 {
		cfg.Steps = 16
	}
	if cfg.MaxBrowned <= 0 {
		cfg.MaxBrowned = max(1, len(ids)*3/10)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xb10c0e7))

	browned := map[string]bool{}
	var brownedList []string

	steps := make([]Step, 0, cfg.Steps)
	for len(steps) < cfg.Steps {
		switch rng.Intn(5) {
		case 0, 1, 2: // brown out a random healthy backend
			if len(browned) >= cfg.MaxBrowned {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if browned[id] {
				continue
			}
			browned[id] = true
			brownedList = append(brownedList, id)
			steps = append(steps, Step{Kind: StepBrownout, A: id})
		case 3: // heal a random browned backend
			if len(brownedList) == 0 {
				continue
			}
			i := rng.Intn(len(brownedList))
			id := brownedList[i]
			brownedList = append(brownedList[:i], brownedList[i+1:]...)
			delete(browned, id)
			steps = append(steps, Step{Kind: StepBrownoutHeal, A: id})
		case 4:
			steps = append(steps, Step{Kind: StepNone})
		}
	}
	return steps
}
