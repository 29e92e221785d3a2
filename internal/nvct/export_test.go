package nvct

import (
	"context"
	"fmt"
)

// RunCampaignLive runs the campaign with every trial on the per-trial live
// path — the reference the snapshot tree is differentially tested against.
// Production campaigns reach the live path only as the tree's fallback.
func (t *Tester) RunCampaignLive(policy *Policy, opts CampaignOpts) *Report {
	rep, err := t.campaign(context.Background(), policy, opts, (*campaignRun).runLive)
	if err != nil {
		panic(fmt.Errorf("nvct: campaign setup failed: %w", err))
	}
	return rep
}
